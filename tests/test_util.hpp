// Shared test harnesses.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/module_interface.hpp"
#include "comm/switch_fabric.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"
#include "hwmodule/hw_module.hpp"
#include "obs/bus.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace vapres::test {

/// Captures one subsystem's EventBus records for the guard's lifetime.
struct EventCapture {
  explicit EventCapture(obs::Subsystem s) {
    obs::EventBus::instance().enable(obs::EventBus::bit(s));
  }
  ~EventCapture() { obs::EventBus::instance().disable(); }
  EventCapture(const EventCapture&) = delete;
  EventCapture& operator=(const EventCapture&) = delete;

  /// The captured instants with `code`, oldest first.
  std::vector<obs::Event> instants(std::uint16_t code) const {
    std::vector<obs::Event> out;
    for (const obs::Event& e : obs::EventBus::instance().snapshot()) {
      if (e.kind == obs::EventKind::kInstant && e.code == code) {
        out.push_back(e);
      }
    }
    return out;
  }
};

/// A standalone switch-fabric rig: one static clock domain, `n` boxes of
/// the given shape, and one producer + one consumer interface attached to
/// every box (channel 0). Used by comm-layer tests without the full
/// system.
struct FabricRig {
  sim::Simulator sim;
  sim::ClockDomain* domain = nullptr;
  std::unique_ptr<comm::SwitchFabric> fabric;
  std::vector<std::unique_ptr<comm::ProducerInterface>> producers;
  std::vector<std::unique_ptr<comm::ConsumerInterface>> consumers;

  explicit FabricRig(int boxes, comm::SwitchBoxShape shape = {},
                     int fifo_depth = comm::Fifo::kDefaultDepth,
                     double mhz = 100.0) {
    domain = &sim.create_domain("clk", mhz);
    fabric = std::make_unique<comm::SwitchFabric>(*domain, boxes, shape);
    for (int i = 0; i < boxes; ++i) {
      for (int ch = 0; ch < shape.ko; ++ch) {
        producers.push_back(std::make_unique<comm::ProducerInterface>(
            "p" + std::to_string(i) + "_" + std::to_string(ch), fifo_depth));
        fabric->attach_producer(i, ch, producers.back().get());
      }
      for (int ch = 0; ch < shape.ki; ++ch) {
        consumers.push_back(std::make_unique<comm::ConsumerInterface>(
            "c" + std::to_string(i) + "_" + std::to_string(ch), fifo_depth));
        fabric->attach_consumer(i, ch, consumers.back().get());
      }
    }
    ko_ = shape.ko;
    ki_ = shape.ki;
  }

  void run(sim::Cycles cycles) { sim.run_cycles(*domain, cycles); }

  comm::ProducerInterface& producer(int box, int ch = 0) {
    return *producers[static_cast<std::size_t>(box * ko_ + ch)];
  }
  comm::ConsumerInterface& consumer(int box, int ch = 0) {
    return *consumers[static_cast<std::size_t>(box * ki_ + ch)];
  }

  /// Drains everything currently in consumer `i`'s (channel 0) FIFO.
  std::vector<comm::Word> drain(int i) {
    std::vector<comm::Word> out;
    auto& fifo = consumer(i).fifo();
    while (!fifo.empty()) out.push_back(fifo.pop());
    return out;
  }

 private:
  int ko_ = 1;
  int ki_ = 1;
};

/// Full-system module-switch rig with fault injection armed: `module_a`
/// streaming in PRR 0 through IOM channels, `module_b` staged in SDRAM
/// (and, implicitly, on CompactFlash — the fallback source) for the
/// spare PRR 1. Injection is enabled with `seed` only *after* bring-up,
/// so the setup itself is fault-free and two rigs built with the same
/// seed replay identically.
struct FaultRig {
  std::unique_ptr<core::VapresSystem> sys;
  core::ChannelId upstream = 0;
  core::ChannelId downstream = 0;
  std::optional<sim::ScopedFaultInjection> faults;

  explicit FaultRig(std::uint64_t seed,
                    const std::string& module_a = "passthrough",
                    const std::string& module_b = "gain_x2") {
    core::SystemParams p = core::SystemParams::prototype();
    p.rsbs[0].prr_width_clbs = 4;  // small PRRs: tests stay fast
    sys = std::make_unique<core::VapresSystem>(std::move(p));
    sys->bring_up_all_sites();
    sys->reconfigure_now(0, 0, module_a);
    sys->preload_sdram(module_b, 0, 1);
    core::Rsb& rsb = sys->rsb();
    upstream = *sys->connect(0, rsb.iom_producer(0), rsb.prr_consumer(0));
    downstream = *sys->connect(0, rsb.prr_producer(0), rsb.iom_consumer(0));
    faults.emplace(seed);
  }

  /// Bare-system variant for scheduler tests: builds `params`, brings
  /// the sites up, and enables deterministic injection — but stages no
  /// modules and connects no channels (the scheduler under test does).
  FaultRig(std::uint64_t seed, core::SystemParams params) {
    sys = std::make_unique<core::VapresSystem>(std::move(params));
    sys->bring_up_all_sites();
    faults.emplace(seed);
  }

  /// Makes the `nth` upcoming ICAP transfer (counted from *now*, and
  /// `count - 1` after it) fail *permanently*: corruption armed with
  /// retries and the CF fallback disabled, so the ReconfigManager
  /// reports failure on the first corrupted attempt. Used to hit a
  /// defrag migration mid-flight.
  void arm_permanent_pr_failure(std::uint64_t nth = 0,
                                std::uint64_t count = 1) {
    sys->reconfig().set_retry_policy({.max_attempts = 1,
                                      .backoff_base_cycles = 256,
                                      .fallback_to_cf = false});
    const auto site = sim::FaultSite::kIcapBitstreamCorruption;
    injector().arm(site, injector().opportunities(site) + nth, count);
  }

  /// Restores the default (self-healing) retry policy.
  void disarm_pr_failures() {
    sys->reconfig().set_retry_policy(core::RetryPolicy{});
  }

  /// Poisons the SDRAM-array source of the next PR: corruption armed
  /// for the default policy's full per-source budget (3 attempts), so
  /// the ReconfigManager rescues the transfer from the pristine CF file
  /// (one source fallback) — after which the bitstream cache must
  /// invalidate the poisoned array and restage it.
  void arm_array_source_fallback(std::uint64_t nth = 0) {
    const auto site = sim::FaultSite::kIcapBitstreamCorruption;
    injector().arm(site, injector().opportunities(site) + nth, 3);
  }

  sim::FaultInjector& injector() { return sim::FaultInjector::instance(); }
  core::Iom& iom() { return sys->rsb().iom(0); }

  core::SwitchRequest request(const std::string& module_b) const {
    core::SwitchRequest req;
    req.src_prr = 0;
    req.dst_prr = 1;
    req.new_module_id = module_b;
    req.upstream = upstream;
    req.downstream = downstream;
    req.eos_iom = 0;
    return req;
  }

  /// Feeds an incrementing 0, 1, 2, ... stream into the IOM source, one
  /// word every `interval` cycles.
  void stream_counter(int interval = 4) {
    iom().set_source_generator(
        [n = 0]() mutable -> std::optional<comm::Word> {
          return static_cast<comm::Word>(n++);
        },
        interval);
  }

  /// Begins the switch and runs until it terminates — completed OR
  /// rolled back. Returns false only on simulated-time exhaustion.
  bool run_until_finished(core::ModuleSwitcher& sw) {
    sw.begin();
    return sys->sim().run_until([&] { return sw.finished(); },
                                sim::kPsPerSecond * 120);
  }
};

/// True iff `words` is exactly `start, start+1, ...` — the loss-free,
/// in-order property of a counter stream (through identity modules).
/// Sets `*bad_index` (if given) to the first offending position.
inline bool in_order_counter_stream(const std::vector<comm::Word>& words,
                                    comm::Word start = 0,
                                    std::size_t* bad_index = nullptr) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (words[i] != start + static_cast<comm::Word>(i)) {
      if (bad_index != nullptr) *bad_index = i;
      return false;
    }
  }
  return true;
}

/// In-memory ModulePorts for unit-testing behaviours without a wrapper.
class PortsStub final : public hwmodule::ModulePorts {
 public:
  explicit PortsStub(int inputs = 1, int outputs = 1)
      : in_(static_cast<std::size_t>(inputs)),
        out_(static_cast<std::size_t>(outputs)) {}

  std::vector<comm::Word>& input(int port = 0) {
    return in_[static_cast<std::size_t>(port)];
  }
  std::vector<comm::Word>& output(int port = 0) {
    return out_[static_cast<std::size_t>(port)];
  }
  std::vector<comm::Word>& fsl_out() { return fsl_out_; }
  std::vector<comm::Word>& fsl_in() { return fsl_in_; }
  void set_output_blocked(bool blocked) { output_blocked_ = blocked; }

  int num_inputs() const override { return static_cast<int>(in_.size()); }
  int num_outputs() const override { return static_cast<int>(out_.size()); }
  bool can_read(int port) const override {
    return !in_[static_cast<std::size_t>(port)].empty();
  }
  comm::Word read(int port) override {
    auto& v = in_[static_cast<std::size_t>(port)];
    const comm::Word w = v.front();
    v.erase(v.begin());
    return w;
  }
  bool can_write(int) const override { return !output_blocked_; }
  void write(int port, comm::Word w) override {
    out_[static_cast<std::size_t>(port)].push_back(w);
  }
  bool fsl_can_write() const override { return true; }
  void fsl_write(comm::Word w) override { fsl_out_.push_back(w); }
  std::optional<comm::Word> fsl_try_read() override {
    if (fsl_in_.empty()) return std::nullopt;
    const comm::Word w = fsl_in_.front();
    fsl_in_.erase(fsl_in_.begin());
    return w;
  }

 private:
  std::vector<std::vector<comm::Word>> in_;
  std::vector<std::vector<comm::Word>> out_;
  std::vector<comm::Word> fsl_out_;
  std::vector<comm::Word> fsl_in_;
  bool output_blocked_ = false;
};

/// Runs a behaviour over an input vector with unbounded output, one
/// firing attempt per cycle, until inputs are consumed and the pipeline
/// is empty (or `max_cycles` elapses).
inline std::vector<comm::Word> run_behavior(
    hwmodule::ModuleBehavior& behavior, std::vector<comm::Word> input,
    int max_cycles = 100000) {
  PortsStub ports(1, 2);
  ports.input(0) = std::move(input);
  for (int i = 0; i < max_cycles; ++i) {
    if (ports.input(0).empty() && behavior.pipeline_empty()) break;
    behavior.on_cycle(ports);
  }
  return ports.output(0);
}

}  // namespace vapres::test
