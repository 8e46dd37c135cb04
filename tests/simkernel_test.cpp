// Activity-driven simulation kernel (ctest label: simkernel).
//
// Two halves:
//   1. Kernel unit tests — quiescence/wake mechanics, analytic
//      fast-forward bookkeeping, mid-tick detach (regression), and the
//      inclusive run_until deadline.
//   2. Lockstep differential tests — seeded random full-system scenarios
//      run twice, once on the activity-driven kernel and once on the
//      exhaustive tick-everything reference (set_activity_driven(false)),
//      asserting bit-identical cycle counts, stream outputs, and
//      processor accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/module_interface.hpp"
#include "core/scrubber.hpp"
#include "core/stats.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "snap/format.hpp"
#include "test_util.hpp"

namespace vapres {
namespace {

using sim::Clocked;
using sim::ClockDomain;
using sim::Cycles;
using sim::Simulator;

// ------------------------------------------------------------ unit rigs

/// Counter with a scriptable quiescence report.
class Idler final : public Clocked {
 public:
  int evals = 0;
  int commits = 0;
  bool idle = false;  ///< quiescent() report
  void eval() override { ++evals; }
  void commit() override { ++commits; }
  bool quiescent() const override { return idle; }
};

/// Commits `n` cycles of work, then reports quiescent.
class FiniteWorker final : public Clocked {
 public:
  explicit FiniteWorker(int n) : remaining_(n) {}
  int commits = 0;
  void eval() override {}
  void commit() override {
    ++commits;
    if (remaining_ > 0) --remaining_;
  }
  bool quiescent() const override { return remaining_ == 0; }

 private:
  int remaining_;
};

// -------------------------------------------------- detach during tick
// Regression: ClockDomain::detach used to erase from the component vector
// the tick loop was iterating, invalidating the loop's view (skipped or
// double-delivered neighbours, potential OOB). A module evicted during
// its own commit — exactly what ModuleSwitcher does — hit this.

class Evictor final : public Clocked {
 public:
  Evictor(ClockDomain& d, std::vector<Clocked*> victims)
      : domain_(d), victims_(std::move(victims)) {}
  int commits = 0;
  void eval() override {}
  void commit() override {
    ++commits;
    for (Clocked* v : victims_) domain_.detach(v);
    victims_.clear();
  }

 private:
  ClockDomain& domain_;
  std::vector<Clocked*> victims_;
};

TEST(DetachDuringTick, EvictingNeighborsMidCommitIsSafe) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler before;   // earlier slot than the evictor
  Idler after;    // later slot: must not receive this tick's commit
  Evictor evictor(d, {&before, &after});
  d.attach(&before);
  d.attach(&evictor);
  d.attach(&after);

  sim.run_cycles(d, 1);
  // `before` was visited before the evictor ran; `after` was not.
  EXPECT_EQ(before.commits, 1);
  EXPECT_EQ(evictor.commits, 1);
  EXPECT_EQ(after.commits, 0);

  sim.run_cycles(d, 5);
  EXPECT_EQ(before.commits, 1);  // detached: no further edges
  EXPECT_EQ(after.commits, 0);
  EXPECT_EQ(evictor.commits, 6);
}

class SelfEvictor final : public Clocked {
 public:
  explicit SelfEvictor(ClockDomain& d) : domain_(d) {}
  int commits = 0;
  void eval() override {}
  void commit() override {
    ++commits;
    domain_.detach(this);
  }

 private:
  ClockDomain& domain_;
};

TEST(DetachDuringTick, SelfDetachMidCommitIsSafe) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler other;
  SelfEvictor self(d);
  d.attach(&self);
  d.attach(&other);
  sim.run_cycles(d, 3);
  EXPECT_EQ(self.commits, 1);
  EXPECT_EQ(other.commits, 3);  // later slot still got every edge
}

TEST(DetachDuringTick, ReattachAfterMidTickDetachWorks) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  SelfEvictor self(d);
  d.attach(&self);
  sim.run_cycles(d, 1);
  EXPECT_EQ(self.commits, 1);
  d.attach(&self);
  sim.run_cycles(d, 1);
  EXPECT_EQ(self.commits, 2);
}

// ------------------------------------------------------ quiescence core

TEST(Quiescence, QuiescentComponentStopsReceivingEdges) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler busy;
  Idler idle;
  idle.idle = true;
  d.attach(&busy);
  d.attach(&idle);
  sim.run_cycles(d, 100);
  EXPECT_EQ(busy.commits, 100);
  // The idle component is deactivated at the first quiescence poll; it
  // receives at most one poll interval's worth of edges.
  EXPECT_LE(idle.commits, 16);
  EXPECT_EQ(d.cycle_count(), 100u);
  EXPECT_EQ(d.active_components(), 1);
  EXPECT_GT(d.kernel_stats().edges_skipped, 0u);
}

TEST(Quiescence, WakeReArmsComponent) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler busy;
  Idler idle;
  idle.idle = true;
  d.attach(&busy);
  d.attach(&idle);
  sim.run_cycles(d, 100);
  const int before = idle.commits;
  idle.idle = false;
  idle.wake();
  sim.run_cycles(d, 10);
  EXPECT_EQ(idle.commits, before + 10);
}

TEST(Quiescence, FullyAsleepDomainCoastsWithExactCycleCount) {
  Simulator sim;
  auto& active = sim.create_domain("active", 100.0);
  auto& lazy = sim.create_domain("lazy", 100.0);
  Idler busy;
  FiniteWorker worker(10);
  active.attach(&busy);
  lazy.attach(&worker);
  sim.run_cycles(active, 1000);
  // The lazy domain slept after ~10 + poll-interval edges, but its cycle
  // counter was fast-forwarded analytically.
  EXPECT_EQ(lazy.cycle_count(), 1000u);
  EXPECT_TRUE(lazy.asleep());
  EXPECT_LE(worker.commits, 32);
  EXPECT_GT(lazy.kernel_stats().domain_sleeps, 0u);
}

TEST(Quiescence, RunCyclesOnAsleepDomainCoasts) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  FiniteWorker worker(5);
  d.attach(&worker);
  sim.run_cycles(d, 500);
  EXPECT_EQ(d.cycle_count(), 500u);
  EXPECT_EQ(sim.now(), d.cycles_to_ps(500));
}

TEST(Quiescence, FrequencyChangeWhileAsleepKeepsAccounting) {
  Simulator sim;
  auto& active = sim.create_domain("active", 100.0);
  auto& lazy = sim.create_domain("lazy", 100.0);
  Idler busy;
  FiniteWorker worker(4);
  active.attach(&busy);
  lazy.attach(&worker);
  sim.run_cycles(active, 500);
  EXPECT_EQ(lazy.cycle_count(), 500u);
  lazy.set_frequency_mhz(50.0);  // retune while fully asleep
  sim.run_cycles(active, 500);
  EXPECT_EQ(lazy.cycle_count(), 500u + 250u);
}

TEST(Quiescence, GatingWhileAsleepSuspendsCycleCredit) {
  Simulator sim;
  auto& active = sim.create_domain("active", 100.0);
  auto& lazy = sim.create_domain("lazy", 100.0);
  Idler busy;
  FiniteWorker worker(4);
  active.attach(&busy);
  lazy.attach(&worker);
  sim.run_cycles(active, 100);
  lazy.set_enabled(false);
  sim.run_cycles(active, 100);
  EXPECT_EQ(lazy.cycle_count(), 100u);  // gated: no credit
  lazy.set_enabled(true);
  sim.run_cycles(active, 100);
  EXPECT_EQ(lazy.cycle_count(), 200u);
}

TEST(Quiescence, ExhaustiveModeDeliversEveryEdge) {
  Simulator sim;
  sim.set_activity_driven(false);
  auto& d = sim.create_domain("clk", 100.0);
  Idler idle;
  idle.idle = true;
  d.attach(&idle);
  sim.run_cycles(d, 50);
  EXPECT_EQ(idle.commits, 50);
  EXPECT_EQ(sim.kernel_stats().edges_skipped, 0u);
}

TEST(Quiescence, FifoWakeTargetReArmsSleepingReader) {
  // A fabric whose consumer interface has an idle input sleeps; an
  // external push into that FIFO (changing the feedback-full threshold
  // state) wakes the fabric.
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  comm::SwitchFabric fabric(d, 1, comm::SwitchBoxShape{1, 1, 1, 1});
  comm::ConsumerInterface cons("cons", 8);
  fabric.attach_consumer(0, 0, &cons);
  cons.set_write_enable(true);
  sim.run_cycles(d, 64);
  EXPECT_TRUE(d.asleep());
  // Fill past the backpressure threshold from outside the domain.
  for (int i = 0; i < 7; ++i) cons.fifo().push(static_cast<comm::Word>(i));
  EXPECT_FALSE(d.asleep());
  sim.run_cycles(d, 16);
  EXPECT_TRUE(*cons.full_feedback_signal());
}

// ------------------------------------------------- run_until / run_for

TEST(RunUntil, DeadlineIsInclusive) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);  // first edge at 10000 ps
  Idler c;
  d.attach(&c);
  // The only edge inside the window lands exactly on the deadline.
  EXPECT_TRUE(sim.run_until([&] { return c.commits >= 1; }, 10000));
  EXPECT_EQ(sim.now(), 10000u);
}

TEST(RunUntil, EventExactlyAtDeadlineRuns) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(5000, [&] { fired = true; });
  EXPECT_TRUE(sim.run_until([&] { return fired; }, 5000));
}

TEST(RunUntil, ChecksPredicateAfterCoastingToDeadline) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  FiniteWorker worker(3);
  d.attach(&worker);
  // The domain sleeps long before the deadline; the coast must still
  // credit cycles and evaluate the predicate at the deadline.
  EXPECT_TRUE(sim.run_until([&] { return d.cycle_count() >= 100; },
                            d.cycles_to_ps(100)));
  EXPECT_EQ(sim.now(), d.cycles_to_ps(100));
}

TEST(RunUntil, NeverOvershootsDeadline) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  Idler c;
  d.attach(&c);
  EXPECT_FALSE(sim.run_until([] { return false; }, 35000));
  EXPECT_EQ(sim.now(), 35000u);
}

TEST(RunFor, IdleSystemStillAdvancesToDeadline) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  FiniteWorker worker(2);
  d.attach(&worker);
  sim.run_for(123456);
  EXPECT_EQ(sim.now(), 123456u);
  EXPECT_EQ(d.cycle_count(), 12u);  // edges at 10000..120000
}

// ------------------------------------------------------- sparse domain
//
// Sixteen components in one domain, only one of them awake for most of
// the run: the shape where a tick visits mostly sleeping slots. The
// awake driver wakes, detaches and attaches its neighbours from inside
// its own eval and commit, and the transcript pins which component got
// which half of the edge on every cycle.

/// Appends " e<id>" / " c<id>" to a shared transcript on every edge.
class Recorder final : public Clocked {
 public:
  Recorder(std::string& log, int id) : log_(log), id_(id) {}
  bool idle = true;  ///< quiescent() report
  std::function<void()> on_eval;
  std::function<void()> on_commit;
  void eval() override {
    note('e');
    if (on_eval) on_eval();
  }
  void commit() override {
    note('c');
    if (on_commit) on_commit();
  }
  bool quiescent() const override { return idle; }

 private:
  void note(char phase) {
    log_ += ' ';
    log_ += phase;
    log_ += std::to_string(id_);
  }
  std::string& log_;
  int id_;
};

TEST(SparseDomain, MidTickWakeDetachAttachKeepDeliveryOrder) {
  Simulator sim;
  auto& d = sim.create_domain("clk", 100.0);
  std::string log;
  std::vector<std::unique_ptr<Recorder>> parts;
  for (int i = 0; i < 16; ++i) {
    parts.push_back(std::make_unique<Recorder>(log, i));
    d.attach(parts.back().get());
  }
  Recorder late(log, 16);
  Recorder& driver = *parts[4];
  driver.idle = false;
  // Scripted by the cycle being ticked (cycle_count() before the edge).
  driver.on_commit = [&] {
    switch (d.cycle_count()) {
      case 9:  // wake an earlier and a later slot from the commit pass
        parts[2]->wake();
        parts[9]->wake();
        break;
      case 11:  // detach an awake later slot and a sleeping earlier one
        d.detach(parts[9].get());
        d.detach(parts[1].get());
        break;
      case 12:  // attach: first edge on the next tick
        d.attach(&late);
        break;
      default:
        break;
    }
  };
  driver.on_eval = [&] {
    if (d.cycle_count() == 14) {  // wake from the eval pass
      parts[0]->wake();
      parts[15]->wake();
    }
  };
  // Every component starts awake; the poll after the eighth edge puts
  // all but the driver to sleep.
  sim.run_cycles(d, 8);
  ASSERT_EQ(d.active_components(), 1);
  log.clear();
  for (int cycle = 8; cycle < 26; ++cycle) {
    sim.run_cycles(d, 1);
    log += " |";
  }
  // Cycle 9: c9 commits without its eval and c2 is already passed.
  // Cycle 11: the detached c9 misses its commit. Cycle 13: the component
  // attached on cycle 12 gets its first edge. Cycle 14: c0 commits
  // without its eval, e15 and c15 both land. The poll after cycle 15
  // puts every idle component back to sleep.
  EXPECT_EQ(log,
            " e4 c4 | e4 c4 c9 | e2 e4 e9 c2 c4 c9 | e2 e4 e9 c2 c4 |"
            " e2 e4 c2 c4 | e2 e4 e16 c2 c4 c16 |"
            " e2 e4 e15 e16 c0 c2 c4 c15 c16 |"
            " e0 e2 e4 e15 e16 c0 c2 c4 c15 c16 |"
            " e4 c4 | e4 c4 | e4 c4 | e4 c4 | e4 c4 | e4 c4 | e4 c4 |"
            " e4 c4 | e4 c4 | e4 c4 |");
  const sim::KernelStats& s = d.kernel_stats();
  EXPECT_EQ(s.edges_delivered, 161u);
  EXPECT_EQ(s.edges_skipped, 240u);
  EXPECT_EQ(s.component_wakes, 4u);
  EXPECT_EQ(s.domain_sleeps, 0u);
  EXPECT_EQ(s.cycles_active, 26u);
  EXPECT_EQ(d.active_components(), 1);
}

// ------------------------------------------------- lockstep scenarios
//
// Each scenario is a deterministic function of (seed); it is run once on
// each kernel and the two digests must match bit-for-bit. The digest
// covers stream payloads, every domain's cycle counter, simulated time,
// and MicroBlaze accounting — everything except the kernel's own
// edge-delivery counters (which by design differ).

core::SystemParams small_params() {
  core::SystemParams p = core::SystemParams::prototype();
  p.rsbs[0].prr_width_clbs = 4;  // small PRRs keep reconfiguration fast
  return p;
}

std::string digest_of(core::VapresSystem& sys) {
  std::ostringstream os;
  os << "now=" << sys.sim().now() << "\n";
  for (const auto& d : sys.sim().domains()) {
    os << "domain " << d->name() << " cycles=" << d->cycle_count()
       << " freq=" << d->frequency_mhz() << " en=" << d->enabled() << "\n";
  }
  core::Rsb& rsb = sys.rsb();
  for (int i = 0; i < rsb.num_ioms(); ++i) {
    core::Iom& iom = rsb.iom(i);
    for (int c = 0; c < iom.num_consumers(); ++c) {
      os << "iom" << i << ".sink" << c << " eos=" << iom.eos_seen(c)
         << " words=";
      for (comm::Word w : iom.received(c)) os << w << ",";
      os << "\n";
    }
    for (int c = 0; c < iom.num_producers(); ++c) {
      os << "iom" << i << ".src" << c << " emitted=" << iom.words_emitted(c)
         << " stalls=" << iom.source_stall_cycles(c) << "\n";
    }
  }
  const core::SystemStats stats = core::collect_stats(sys);
  os << "mb_busy=" << stats.mb_busy_cycles << " dcr=" << stats.dcr_accesses
     << " icap_bytes=" << stats.icap_bytes << " prs=" << stats.reconfigurations
     << " discarded=" << stats.total_discarded() << "\n";
  for (const core::SiteStats& s : stats.sites) {
    os << "site " << s.name << " in=" << s.words_in << " out=" << s.words_out
       << " mod=" << s.loaded_module << "\n";
  }
  return os.str();
}

/// Common scenario body: a module streaming between the IOM's source and
/// sink channels, with optional seeded perturbations (LCD retunes, clock
/// gating) applied as scheduled events, and an idle-heavy tail.
std::string run_stream_scenario(std::uint64_t seed, bool activity,
                                bool arm_faults, bool lcd_changes,
                                bool gating) {
  std::optional<sim::ScopedFaultInjection> faults;
  core::VapresSystem sys(small_params());
  sys.sim().set_activity_driven(activity);
  sys.bring_up_all_sites();

  sim::SplitMix64 rng(seed);
  const char* modules[] = {"passthrough", "gain_x2", "offset_100"};
  const std::string module = modules[rng.next_below(3)];
  sys.reconfigure_now(0, 0, module);

  core::Rsb& rsb = sys.rsb();
  EXPECT_TRUE(sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0)));
  EXPECT_TRUE(sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0)));

  const int interval = 1 + static_cast<int>(rng.next_below(8));
  const int nwords = 50 + static_cast<int>(rng.next_below(100));
  std::vector<comm::Word> data;
  for (int w = 0; w < nwords; ++w) {
    data.push_back(static_cast<comm::Word>(w * 3 + 1));
  }
  sys.rsb().iom(0).set_source_data(data, interval);

  core::Prr& prr = rsb.prr(0);
  const auto period = sys.system_clock().period_ps();
  if (lcd_changes) {
    for (int i = 0; i < 4; ++i) {
      const auto at = (100 + rng.next_below(2000)) * period;
      const int sel = static_cast<int>(rng.next_below(2));
      sys.sim().schedule_after(at, [&prr, sel] {
        prr.clock_tree().select(sel);
      });
    }
  }
  if (gating) {
    // Paired gate-off/gate-on windows so the stream eventually drains.
    for (int i = 0; i < 3; ++i) {
      const auto off = (100 + rng.next_below(1500)) * period;
      const auto on = off + (50 + rng.next_below(300)) * period;
      sys.sim().schedule_after(off, [&prr] {
        prr.clock_tree().set_enabled(false);
      });
      sys.sim().schedule_after(on, [&prr] {
        prr.clock_tree().set_enabled(true);
      });
    }
  }
  if (arm_faults) faults.emplace(seed);

  // Active phase, then a long idle tail (the quiescence-heavy part).
  sys.run_system_cycles(4000 + rng.next_below(2000));
  sys.rsb().iom(0).stop_source();
  sys.run_system_cycles(20000);
  return digest_of(sys);
}

/// Scheduler churn: submissions, admissions, stops, and resubmissions of
/// short-lived streaming apps, driven by the seed.
std::string run_scheduler_scenario(std::uint64_t seed, bool activity) {
  core::SystemParams p;
  core::RsbParams& r = p.rsbs[0];
  r.num_prrs = 4;
  r.num_ioms = 3;
  r.kr = 3;
  r.kl = 3;
  p.prr_rects = {fabric::ClbRect{0, 0, 16, 10}, fabric::ClbRect{16, 0, 16, 4},
                 fabric::ClbRect{32, 0, 16, 10},
                 fabric::ClbRect{48, 0, 16, 4}};
  core::VapresSystem sys(p);
  sys.sim().set_activity_driven(activity);
  sys.bring_up_all_sites();
  sched::ApplicationScheduler scheduler(sys);

  sim::SplitMix64 rng(seed);
  const char* modules[] = {"passthrough", "gain_x2", "offset_100"};
  std::ostringstream log;
  std::vector<int> ids;
  for (int round = 0; round < 3; ++round) {
    const int submissions = 1 + static_cast<int>(rng.next_below(2));
    for (int s = 0; s < submissions; ++s) {
      sched::AppRequest req;
      req.name = "app" + std::to_string(round) + "_" + std::to_string(s);
      const int chain = 1 + static_cast<int>(rng.next_below(2));
      for (int m = 0; m < chain; ++m) {
        req.modules.push_back(modules[rng.next_below(3)]);
      }
      req.priority = 1 + static_cast<int>(rng.next_below(3));
      req.source_interval_cycles = 2 + static_cast<int>(rng.next_below(6));
      req.source_words = 24 + rng.next_below(40);
      ids.push_back(scheduler.submit(req));
    }
    scheduler.run_admission();
    sys.run_system_cycles(2000 + rng.next_below(2000));
    // Stop a random running app, if any.
    const auto running = scheduler.running_apps();
    if (!running.empty()) {
      scheduler.stop(running[rng.next_below(running.size())]);
    }
    sys.run_system_cycles(500);
  }
  sys.run_system_cycles(8000);  // idle-heavy tail

  for (int id : ids) {
    const sched::AppRecord& app = scheduler.app(id);
    log << "app " << id << " state=" << static_cast<int>(app.state)
        << " verdict=" << static_cast<int>(app.verdict) << " words=";
    for (comm::Word w : scheduler.received_words(id)) log << w << ",";
    log << "\n";
  }
  log << digest_of(sys);
  return log.str();
}

void expect_lockstep(const std::string& label, const std::string& fast,
                     const std::string& reference) {
  EXPECT_EQ(fast, reference) << label
                             << ": activity-driven kernel diverged from the "
                                "exhaustive reference";
}

TEST(Lockstep, StreamingIdleHeavy) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_lockstep(
        "stream seed " + std::to_string(seed),
        run_stream_scenario(seed, true, false, false, false),
        run_stream_scenario(seed, false, false, false, false));
  }
}

TEST(Lockstep, FaultInjectionArmed) {
  // With the injector enabled the kernel falls back to exhaustive
  // delivery (every commit is an RNG draw opportunity); the digests must
  // still match the reference exactly.
  for (std::uint64_t seed = 6; seed <= 10; ++seed) {
    expect_lockstep("fault seed " + std::to_string(seed),
                    run_stream_scenario(seed, true, true, false, false),
                    run_stream_scenario(seed, false, true, false, false));
  }
}

TEST(Lockstep, LcdFrequencyChanges) {
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    expect_lockstep("lcd seed " + std::to_string(seed),
                    run_stream_scenario(seed, true, false, true, false),
                    run_stream_scenario(seed, false, false, true, false));
  }
}

TEST(Lockstep, ClockGating) {
  for (std::uint64_t seed = 16; seed <= 20; ++seed) {
    expect_lockstep("gating seed " + std::to_string(seed),
                    run_stream_scenario(seed, true, false, false, true),
                    run_stream_scenario(seed, false, false, false, true));
  }
}

TEST(Lockstep, EverythingAtOnce) {
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    expect_lockstep("combined seed " + std::to_string(seed),
                    run_stream_scenario(seed, true, true, true, true),
                    run_stream_scenario(seed, false, true, true, true));
  }
}

TEST(Lockstep, SchedulerChurn) {
  for (std::uint64_t seed = 24; seed <= 26; ++seed) {
    expect_lockstep("sched seed " + std::to_string(seed),
                    run_scheduler_scenario(seed, true),
                    run_scheduler_scenario(seed, false));
  }
}

TEST(Lockstep, ActivityKernelSkipsEdgesOnIdleTail) {
  // Sanity that the lockstep scenarios actually exercise the fast path:
  // the activity-driven run of a stream scenario must skip a large share
  // of its component edges.
  core::VapresSystem sys(small_params());
  sys.bring_up_all_sites();
  sys.reconfigure_now(0, 0, "passthrough");
  core::Rsb& rsb = sys.rsb();
  ASSERT_TRUE(sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0)));
  ASSERT_TRUE(sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0)));
  sys.rsb().iom(0).set_source_data({1, 2, 3, 4}, 4);
  sys.run_system_cycles(30000);
  const sim::KernelStats ks = sys.sim().kernel_stats();
  EXPECT_GT(ks.edges_skipped, ks.edges_delivered);
  EXPECT_GT(ks.domain_sleeps, 0u);
}


// ------------------------------------------------- golden digests
//
// The lockstep tests compare the two kernels with each other, and armed
// injection forces both onto the exhaustive path, so they cannot see a
// change in the *order* in which the fabric's commits draw from the
// fault RNG. These scenarios pin absolute digests instead: a three-route
// pipeline IOM -> PRR1 -> PRR0 -> IOM whose routes cross every box in
// both directions, once with live stuck-port and FIFO drop/duplicate
// probabilities plus the scrubber repairing stuck muxes, once unarmed
// with an idle gap between two bursts (fabric sleep and wake).

std::uint64_t fnv_of(const std::string& s) {
  return snap::fnv1a(s.data(), s.size());
}

struct PipelineRun {
  std::string digest;
  std::string faults;
  std::uint64_t mux_repairs = 0;
};

PipelineRun run_pipeline_scenario(bool arm) {
  std::optional<sim::ScopedFaultInjection> faults;
  core::VapresSystem sys(small_params());
  sys.bring_up_all_sites();
  sys.reconfigure_now(0, 0, "passthrough");
  sys.reconfigure_now(0, 1, "gain_x2");
  core::Rsb& rsb = sys.rsb();
  EXPECT_TRUE(sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(1)));
  EXPECT_TRUE(sys.connect(0, rsb.prr_producer(1), rsb.prr_consumer(0)));
  EXPECT_TRUE(sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0)));
  core::ScrubberTask scrubber(sys, /*period_cycles=*/400);
  if (arm) {
    faults.emplace(0x5eed);
    (*faults)->set_probability(sim::FaultSite::kSwitchBoxStuckPort, 2e-4);
    (*faults)->set_probability(sim::FaultSite::kFifoDropWord, 0.01);
    (*faults)->set_probability(sim::FaultSite::kFifoDuplicateWord, 0.01);
    scrubber.start();
  }
  for (int burst = 0; burst < 2; ++burst) {
    std::vector<comm::Word> data;
    for (int w = 0; w < 300; ++w) {
      data.push_back(static_cast<comm::Word>(burst * 1000 + w * 7 + 3));
    }
    rsb.iom(0).set_source_data(data, 2);
    sys.run_system_cycles(5000);
    sys.run_system_cycles(3000);  // idle gap: the fabric goes to sleep
  }
  PipelineRun run;
  run.digest = digest_of(sys);
  run.faults = sim::FaultInjector::instance().report();
  run.mux_repairs = scrubber.mux_repairs();
  return run;
}

TEST(GoldenDigest, ArmedPipelineWithStuckPortsAndScrubber) {
  const PipelineRun run = run_pipeline_scenario(/*arm=*/true);
  // Every site the test claims to pin actually fired.
  EXPECT_NE(run.faults.find("switch_box_stuck_port"), std::string::npos)
      << run.faults;
  EXPECT_NE(run.faults.find("fifo_drop_word"), std::string::npos)
      << run.faults;
  EXPECT_NE(run.faults.find("fifo_duplicate_word"), std::string::npos)
      << run.faults;
  EXPECT_GT(run.mux_repairs, 0u);
  EXPECT_EQ(run.faults,
            "faults injected: 96\n"
            "  fifo_drop_word: 33 (of 2871 opportunities)\n"
            "  fifo_duplicate_word: 27 (of 2838 opportunities)\n"
            "  switch_box_stuck_port: 36 (of 183204 opportunities)\n"
            "recoveries: 29\n"
            "  scrub_repair: 29\n");
  EXPECT_EQ(fnv_of(run.digest), 0xc7a8eead5ed78a26ULL) << std::hex << fnv_of(run.digest)
                                        << "\n" << run.digest;
}

TEST(GoldenDigest, UnarmedMultiRoutePipeline) {
  const PipelineRun run = run_pipeline_scenario(/*arm=*/false);
  EXPECT_EQ(fnv_of(run.digest), 0x1db5bd13a8cb7058ULL) << std::hex << fnv_of(run.digest)
                                        << "\n" << run.digest;
}

}  // namespace
}  // namespace vapres
