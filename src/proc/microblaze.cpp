#include "proc/microblaze.hpp"

#include <algorithm>

#include "obs/bus.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"

namespace vapres::proc {

namespace {

/// Tracks are registered per task name, so each software task gets its
/// own lane in the exported trace. Guarded by the bus mask: no string
/// work when the proc subsystem is not being captured.
void note_task_event(std::uint16_t code, SoftwareTask* task,
                     sim::ClockDomain& domain) {
  auto& bus = obs::EventBus::instance();
  if (!bus.enabled(obs::Subsystem::kProc)) return;
  bus.instant(obs::Subsystem::kProc, code, bus.track(task->task_name()),
              domain.now(), domain.cycle_count());
}

}  // namespace

Microblaze::Microblaze(std::string name, sim::ClockDomain& domain,
                       comm::DcrBus& dcr)
    : name_(std::move(name)), domain_(domain), dcr_(dcr) {
  domain_.attach(this);
}

Microblaze::~Microblaze() {
  disarm_busy_wake();
  domain_.detach(this);
}

void Microblaze::add_task(SoftwareTask* task) {
  VAPRES_REQUIRE(task != nullptr, "cannot schedule null task");
  tasks_.push_back(task);
  note_task_event(obs::ev::kTaskScheduled, task, domain_);
  wake();
}

void Microblaze::remove_task(SoftwareTask* task) {
  auto it = std::find(tasks_.begin(), tasks_.end(), task);
  if (it == tasks_.end()) return;
  note_task_event(obs::ev::kTaskDescheduled, task, domain_);
  const auto idx = static_cast<std::size_t>(it - tasks_.begin());
  tasks_.erase(it);
  if (next_task_ > idx) --next_task_;
  if (!tasks_.empty()) next_task_ %= tasks_.size();
}

void Microblaze::dcr_write(comm::DcrAddress addr, comm::DcrValue value) {
  dcr_.write(addr, value);
  busy_for(comm::DcrBus::kBridgeAccessCycles);
}

comm::DcrValue Microblaze::dcr_read(comm::DcrAddress addr) {
  const comm::DcrValue v = dcr_.read(addr);
  busy_for(comm::DcrBus::kBridgeAccessCycles);
  return v;
}

void Microblaze::busy_for(sim::Cycles n) {
  busy_pending_ += n;
  total_busy_cycles_ += n;
  wake();
}

void Microblaze::arm_busy_wake() {
  if (sim_ == nullptr) return;  // no skip; the core just stays awake
  if (busy_wake_.has_value() && busy_wake_cycle_ == busy_last_cycle_) return;
  disarm_busy_wake();
  schedule_busy_wake(
      domain_.cycles_to_ps(busy_last_cycle_ - domain_.cycle_count()));
}

void Microblaze::schedule_busy_wake(sim::Picoseconds delay) {
  busy_wake_cycle_ = busy_last_cycle_;
  busy_wake_ = sim_->schedule_after(delay, [this] {
    busy_wake_.reset();
    wake();
  });
}

void Microblaze::disarm_busy_wake() {
  if (!busy_wake_.has_value()) return;
  if (sim_ != nullptr) sim_->cancel(*busy_wake_);
  busy_wake_.reset();
}

void Microblaze::busy_for(sim::Cycles n, std::function<void()> on_complete) {
  VAPRES_REQUIRE(on_idle_ == nullptr,
                 name_ + ": a completion is already pending");
  busy_for(n);
  on_idle_ = std::move(on_complete);
}

void Microblaze::attach_interrupts(InterruptController* intc,
                                   InterruptHandler handler) {
  VAPRES_REQUIRE(intc != nullptr && handler != nullptr,
                 name_ + ": interrupt wiring needs intc and handler");
  intc_ = intc;
  interrupt_handler_ = std::move(handler);
  wake();
}

void Microblaze::commit() {
  // The intc samples its sources every cycle, even while the core is
  // busy — pending interrupts latch and wait.
  if (intc_ != nullptr) intc_->sample();

  // Fold newly-charged busy time into the absolute expiry cycle. Work
  // charged during a previous commit on edge E first reaches this fold on
  // edge E+1, so anchoring n cycles here ends on edge E+n — exactly where
  // a per-edge countdown started at E would hit zero.
  if (busy_pending_ > 0) {
    if (busy_anchored_) {
      busy_last_cycle_ += busy_pending_;
    } else {
      busy_anchored_ = true;
      busy_last_cycle_ = domain_.cycle_count() + busy_pending_ - 1;
    }
    busy_pending_ = 0;
  }

  if (busy_anchored_) {
    if (domain_.cycle_count() < busy_last_cycle_) {
      // Still busy: arm (or retarget) the expiry wake so the activity
      // kernel may sleep the core through the remainder of the span.
      arm_busy_wake();
      return;
    }
    busy_anchored_ = false;
    disarm_busy_wake();
    if (on_idle_) {
      auto fn = std::move(on_idle_);
      on_idle_ = nullptr;
      fn();
    }
    return;
  }

  // Interrupts preempt the task round-robin.
  if (intc_ != nullptr) {
    const int irq = intc_->next_pending();
    if (irq >= 0) {
      busy_for(kIsrOverheadCycles);
      interrupt_handler_(irq, *this);
      intc_->acknowledge(irq);
      ++interrupts_serviced_;
      return;
    }
  }

  if (tasks_.empty()) return;

  // Round-robin: one task quantum per idle cycle.
  next_task_ %= tasks_.size();
  SoftwareTask* task = tasks_[next_task_];
  const bool done = task->step(*this);
  // The task may have been removed (or others added) during step().
  if (done) {
    remove_task(task);
  } else {
    auto it = std::find(tasks_.begin(), tasks_.end(), task);
    if (it != tasks_.end()) {
      next_task_ = (static_cast<std::size_t>(it - tasks_.begin()) + 1) %
                   tasks_.size();
    }
  }
}

}  // namespace vapres::proc
