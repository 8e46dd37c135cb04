// MicroBlaze-class controller model.
//
// The VAPRES controlling region runs software modules on a soft-core
// MicroBlaze (Section III.A). The evaluation never depends on the ISA —
// it depends on *what the software does to the system and how many cycles
// it spends doing it*. So the model executes cooperative SoftwareTasks,
// one step per processor cycle when the core is idle, and charges cycle
// costs for bus accesses and long-running driver calls (reconfiguration)
// through an explicit busy counter. This substitution is documented in
// DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "comm/dcr.hpp"
#include "proc/interrupt.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace vapres::sim {
class Simulator;
}  // namespace vapres::sim

namespace vapres::proc {

class Microblaze;

/// A software module: cooperative task stepped once per idle processor
/// cycle. Long operations charge time via Microblaze::busy_for().
class SoftwareTask {
 public:
  virtual ~SoftwareTask() = default;
  /// One scheduling quantum. Return true when the task is finished and
  /// should be descheduled.
  virtual bool step(Microblaze& mb) = 0;
  virtual std::string task_name() const { return "<task>"; }
};

/// Adapts a callable to SoftwareTask.
class FunctionTask final : public SoftwareTask {
 public:
  using Fn = std::function<bool(Microblaze&)>;
  explicit FunctionTask(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  bool step(Microblaze& mb) override { return fn_(mb); }
  std::string task_name() const override { return name_; }

 private:
  std::string name_;
  Fn fn_;
};

class Microblaze final : public sim::Clocked {
 public:
  Microblaze(std::string name, sim::ClockDomain& domain, comm::DcrBus& dcr);
  ~Microblaze() override;

  Microblaze(const Microblaze&) = delete;
  Microblaze& operator=(const Microblaze&) = delete;

  std::string name() const override { return name_; }
  sim::ClockDomain& domain() { return domain_; }
  comm::DcrBus& dcr_bus() { return dcr_; }

  /// Registers a task (not owned). Tasks are stepped round-robin, one per
  /// idle cycle. Finished tasks are removed automatically.
  void add_task(SoftwareTask* task);
  void remove_task(SoftwareTask* task);
  std::size_t task_count() const { return tasks_.size(); }

  // ---- Software-visible operations (call from task steps) -------------

  /// PRSocket DCR access through the PLB-to-DCR bridge: immediate effect,
  /// charges the bridge latency.
  void dcr_write(comm::DcrAddress addr, comm::DcrValue value);
  comm::DcrValue dcr_read(comm::DcrAddress addr);

  /// Marks the core busy for `n` cycles (a blocking driver call). The
  /// span is tracked analytically: the next commit anchors an expiry
  /// cycle instead of decrementing a counter every edge, so a long
  /// driver call (a PR transfer is millions of cycles) costs O(1) host
  /// work when the activity kernel can sleep the core through it.
  void busy_for(sim::Cycles n);

  /// Busy for `n` cycles, then run `on_complete` (still on this core).
  void busy_for(sim::Cycles n, std::function<void()> on_complete);

  bool busy() const { return busy_pending_ > 0 || busy_anchored_; }

  /// Wires the owning simulator so busy spans can be slept through: the
  /// expiry edge is delivered by a scheduled wake event. Without it the
  /// core simply stays awake while busy — identical behaviour, no skip.
  void set_simulator(sim::Simulator* sim) { sim_ = sim; }

  // ---- Interrupts ------------------------------------------------------

  /// Cycles charged per ISR dispatch (context save/restore).
  static constexpr sim::Cycles kIsrOverheadCycles = 12;

  /// Attaches an interrupt controller and the handler invoked for each
  /// pending interrupt. The handler runs between task quanta when the
  /// core is idle; the interrupt is acknowledged after it returns.
  using InterruptHandler = std::function<void(int irq, Microblaze&)>;
  void attach_interrupts(InterruptController* intc,
                         InterruptHandler handler);
  InterruptController* intc() { return intc_; }
  std::uint64_t interrupts_serviced() const { return interrupts_serviced_; }

  /// Current processor cycle count.
  sim::Cycles cycle() const { return domain_.cycle_count(); }

  std::uint64_t total_busy_cycles() const { return total_busy_cycles_; }

  void eval() override {}
  void commit() override;
  /// The core sleeps when it has nothing schedulable: no tasks, no
  /// un-anchored busy work, and no interrupt controller to sample (the
  /// intc latches sources every cycle, so attaching one pins the core
  /// awake). An *anchored* busy span may be slept through — but only
  /// once the expiry wake event is armed for the current expiry cycle,
  /// otherwise the expiry edge would never be delivered.
  /// add_task()/busy_for() re-arm the clock domain.
  bool quiescent() const override {
    if (intc_ != nullptr || busy_pending_ > 0) return false;
    if (busy_anchored_) {
      return busy_wake_.has_value() && busy_wake_cycle_ == busy_last_cycle_;
    }
    return tasks_.empty();
  }

  /// True when nothing but journaled busy time is in flight: no task, no
  /// completion callback, no interrupt controller, and an anchored busy
  /// span has its expiry wake armed. A cold checkpoint requires it.
  bool at_rest() const {
    return tasks_.empty() && on_idle_ == nullptr && intc_ == nullptr &&
           (!busy_anchored_ || (busy_wake_.has_value() &&
                                busy_wake_cycle_ == busy_last_cycle_));
  }
  bool busy_wake_armed() const { return busy_wake_.has_value(); }

  /// Snapshot fields (snap/format.hpp): busy-span machinery and lifetime
  /// counters. A pending busy wake travels as its remaining delay and is
  /// re-armed at exactly that delay: restore time need not be
  /// edge-aligned, so arm_busy_wake() would misplace the expiry edge. A
  /// restore expects the simulator's time already restored.
  template <class Ar>
  void visit(Ar& ar) {
    bool wake_armed = busy_wake_.has_value();
    sim::Picoseconds wake_delay = 0;
    if constexpr (!Ar::kReading) {
      if (wake_armed && !sim_->events().empty()) {
        wake_delay = sim_->events().next_time() - sim_->now();
      }
    }
    ar(busy_pending_, busy_anchored_, busy_last_cycle_, wake_armed,
       wake_delay, total_busy_cycles_, interrupts_serviced_);
    if constexpr (Ar::kReading) {
      if (wake_armed) schedule_busy_wake(wake_delay);
    }
  }

 private:
  /// Schedules (or reschedules) the wake event for the expiry edge.
  /// Called from commit(), so "now" is edge-aligned and the event lands
  /// exactly on the expiry edge — events run before coincident edges,
  /// so the woken core receives that edge. No-op without a simulator.
  void arm_busy_wake();
  /// Arms the expiry wake of the busy span ending at busy_last_cycle_,
  /// `delay` from now.
  void schedule_busy_wake(sim::Picoseconds delay);
  void disarm_busy_wake();

  std::string name_;
  sim::ClockDomain& domain_;
  comm::DcrBus& dcr_;
  sim::Simulator* sim_ = nullptr;
  std::vector<SoftwareTask*> tasks_;
  std::size_t next_task_ = 0;
  // Busy time is two-stage: busy_for() accumulates into busy_pending_,
  // and the next commit folds it into the absolute expiry cycle
  // busy_last_cycle_ (the last edge on which the core is still busy;
  // on_idle_ fires on that edge). Cycle-for-cycle equivalent to the old
  // per-edge decrement, but sleepable.
  sim::Cycles busy_pending_ = 0;
  bool busy_anchored_ = false;
  sim::Cycles busy_last_cycle_ = 0;
  std::optional<sim::EventQueue::EventId> busy_wake_;
  sim::Cycles busy_wake_cycle_ = 0;
  std::uint64_t total_busy_cycles_ = 0;
  std::function<void()> on_idle_;
  InterruptController* intc_ = nullptr;
  InterruptHandler interrupt_handler_;
  std::uint64_t interrupts_serviced_ = 0;
};

}  // namespace vapres::proc
