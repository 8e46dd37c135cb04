// Tooling benchmark — simulator throughput and the activity-driven win.
//
// Not a paper experiment: measures how fast the discrete-event model
// itself runs, comparing the activity-driven (quiescence-aware) kernel
// against the exhaustive tick-everything reference (docs/SIMULATOR.md)
// on two workloads:
//
//   idle-heavy    a long PR transfer (vapres_array2icap of a 640-slice
//                 module) with the other PRR's clock gated, followed by
//                 an idle-fabric span — the span the quiescence tracking
//                 exists for;
//   fully-active  a rate-1 stream saturating an IOM -> PRR -> IOM chain,
//                 every component busy every cycle — the worst case for
//                 the poll overhead.
//
// Each workload runs several times per kernel, the two kernels
// alternating (and swapping which goes first every repeat) so that a
// burst of host load lands on both sides alike; the gates compare the
// per-kernel minimum wall times.
//
// Emits BENCH_sim_speed.json (edges delivered/skipped, best wall-clock
// and every repeat's wall-clock, host ns per static-domain cycle,
// sim-time/wall-time ratio per workload and kernel) and exits non-zero
// when the acceptance thresholds regress: >= 5x wall-clock speedup on
// idle-heavy, <= 10 % slowdown on fully-active. scripts/tier1.sh runs
// this binary.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "sim/clock.hpp"

namespace {

using namespace vapres;
using comm::Word;

struct RunResult {
  double wall_s = 0.0;
  double sim_s = 0.0;
  sim::Cycles cycles = 0;
  sim::KernelStats stats;

  double sim_wall_ratio() const { return wall_s > 0 ? sim_s / wall_s : 0; }
  /// Host nanoseconds per static-domain cycle. Unlike per-edge figures it
  /// does not depend on how many components the kernel counts per cycle.
  double ns_per_system_cycle() const {
    return cycles > 0 ? wall_s * 1e9 / static_cast<double>(cycles) : 0;
  }
};

std::unique_ptr<core::VapresSystem> make_system(bool activity_driven) {
  core::SystemParams p = core::SystemParams::prototype();
  auto sys = std::make_unique<core::VapresSystem>(std::move(p));
  sys->sim().set_activity_driven(activity_driven);
  sys->bring_up_all_sites();
  return sys;
}

template <typename Fn>
RunResult timed(core::VapresSystem& sys, Fn&& body) {
  const sim::Picoseconds ps0 = sys.sim().now();
  const sim::Cycles c0 = sys.system_clock().cycle_count();
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.sim_s = static_cast<double>(sys.sim().now() - ps0) * 1e-12;
  r.cycles = sys.system_clock().cycle_count() - c0;
  r.stats = sys.sim().kernel_stats();
  return r;
}

/// Long PR transfer with the spare PRR's clock gated, then idle fabric.
RunResult run_idle_heavy(bool activity_driven) {
  auto sys = make_system(activity_driven);
  sys->preload_sdram("fir4_smooth", 0, 0);
  sys->rsb().prr(1).clock_tree().set_enabled(false);
  return timed(*sys, [&] {
    sys->reconfigure_now(0, 0, "fir4_smooth");
    sys->run_system_cycles(6'000'000);
  });
}

/// Rate-1 stream through a passthrough module, everything busy.
RunResult run_fully_active(bool activity_driven) {
  auto sys = make_system(activity_driven);
  sys->reconfigure_now(0, 0, "passthrough");
  core::Rsb& rsb = sys->rsb();
  sys->connect(0, rsb.iom_producer(0), rsb.prr_consumer(0));
  sys->connect(0, rsb.prr_producer(0), rsb.iom_consumer(0));
  rsb.iom(0).set_source_generator(
      [n = 0]() mutable -> std::optional<Word> {
        return static_cast<Word>(n++);
      },
      /*interval_cycles=*/1);
  return timed(*sys, [&] {
    for (int chunk = 0; chunk < 50; ++chunk) {
      sys->run_system_cycles(10'000);
      rsb.iom(0).take_received();  // keep memory flat
    }
  });
}

void print_result(const char* workload, const char* kernel,
                  const RunResult& r) {
  std::printf(
      "%-13s %-10s wall %8.3f s | sim %9.4f s (%8.1fx real time) | "
      "%llu cycles, %.4g ns/cycle | edges: %llu delivered, %llu skipped | "
      "%llu sleeps, %llu wakes\n",
      workload, kernel, r.wall_s, r.sim_s, r.sim_wall_ratio(),
      static_cast<unsigned long long>(r.cycles), r.ns_per_system_cycle(),
      static_cast<unsigned long long>(r.stats.edges_delivered),
      static_cast<unsigned long long>(r.stats.edges_skipped),
      static_cast<unsigned long long>(r.stats.domain_sleeps),
      static_cast<unsigned long long>(r.stats.component_wakes));
}

/// One kernel's repeats on one workload: the fastest run (the kernel
/// counters are identical across repeats — the model is deterministic)
/// plus every repeat's wall time.
struct Repeats {
  RunResult best;
  std::vector<double> walls;

  void add(const RunResult& r) {
    if (walls.empty() || r.wall_s < best.wall_s) best = r;
    walls.push_back(r.wall_s);
  }
};

// The idle-heavy gate clears its bound by orders of magnitude. The
// fully-active kernels differ by ~2 % against a 10 % bound, and a ~65 ms
// repeat's wall time drifts by several percent with host load, so each
// kernel needs enough repeats for its minimum to reach the same floor.
constexpr int kIdleRepeats = 7;
constexpr int kActiveRepeats = 21;

/// Runs `run(true)` (activity) and `run(false)` (exhaustive) `repeats`
/// times each, alternating, with the first kernel swapped every repeat.
template <typename Run>
std::pair<Repeats, Repeats> interleaved(Run&& run, int repeats) {
  Repeats fast;
  Repeats ref;
  for (int i = 0; i < repeats; ++i) {
    if (i % 2 == 0) {
      fast.add(run(true));
      ref.add(run(false));
    } else {
      ref.add(run(false));
      fast.add(run(true));
    }
  }
  return {fast, ref};
}

void emit_json_run(std::FILE* f, const char* kernel, const Repeats& rep,
                   bool last) {
  const RunResult& r = rep.best;
  std::string walls;
  for (double w : rep.walls) {
    if (!walls.empty()) walls += ", ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", w);
    walls += buf;
  }
  std::fprintf(f,
               "    \"%s\": {\n"
               "      \"wall_seconds\": %.6f,\n"
               "      \"wall_seconds_repeats\": [%s],\n"
               "      \"sim_seconds\": %.6f,\n"
               "      \"sim_wall_ratio\": %.3f,\n"
               "      \"system_cycles\": %llu,\n"
               "      \"ns_per_system_cycle\": %.6g,\n"
               "      \"edges_delivered\": %llu,\n"
               "      \"edges_skipped\": %llu,\n"
               "      \"domain_sleeps\": %llu,\n"
               "      \"component_wakes\": %llu\n"
               "    }%s\n",
               kernel, r.wall_s, walls.c_str(), r.sim_s, r.sim_wall_ratio(),
               static_cast<unsigned long long>(r.cycles),
               r.ns_per_system_cycle(),
               static_cast<unsigned long long>(r.stats.edges_delivered),
               static_cast<unsigned long long>(r.stats.edges_skipped),
               static_cast<unsigned long long>(r.stats.domain_sleeps),
               static_cast<unsigned long long>(r.stats.component_wakes),
               last ? "" : ",");
}

}  // namespace

int main() {
  std::printf("== simulator throughput: activity-driven vs exhaustive ==\n");

  const auto [idle_fast_runs, idle_ref_runs] =
      interleaved(run_idle_heavy, kIdleRepeats);
  const auto [active_fast_runs, active_ref_runs] =
      interleaved(run_fully_active, kActiveRepeats);
  const RunResult& idle_fast = idle_fast_runs.best;
  const RunResult& idle_ref = idle_ref_runs.best;
  const RunResult& active_fast = active_fast_runs.best;
  const RunResult& active_ref = active_ref_runs.best;

  std::printf("best of %d (idle-heavy) and %d (fully-active) interleaved "
              "repeats per kernel:\n",
              kIdleRepeats, kActiveRepeats);
  print_result("idle-heavy", "activity", idle_fast);
  print_result("idle-heavy", "exhaustive", idle_ref);
  print_result("fully-active", "activity", active_fast);
  print_result("fully-active", "exhaustive", active_ref);

  const double speedup =
      idle_fast.wall_s > 0 ? idle_ref.wall_s / idle_fast.wall_s : 0;
  const double slowdown_pct =
      active_ref.wall_s > 0
          ? 100.0 * (active_fast.wall_s - active_ref.wall_s) /
                active_ref.wall_s
          : 0;
  const bool idle_ok = speedup >= 5.0;
  const bool active_ok = slowdown_pct <= 10.0;
  std::printf("idle-heavy speedup: %.1fx (threshold >= 5x: %s)\n", speedup,
              idle_ok ? "PASS" : "FAIL");
  std::printf("fully-active slowdown: %+.1f%% (threshold <= 10%%: %s)\n",
              slowdown_pct, active_ok ? "PASS" : "FAIL");

  std::FILE* f = std::fopen("BENCH_sim_speed.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"idle_heavy\": {\n");
    emit_json_run(f, "activity", idle_fast_runs, false);
    emit_json_run(f, "exhaustive", idle_ref_runs, true);
    std::fprintf(f, "  },\n  \"fully_active\": {\n");
    emit_json_run(f, "activity", active_fast_runs, false);
    emit_json_run(f, "exhaustive", active_ref_runs, true);
    std::fprintf(f,
                 "  },\n"
                 "  \"idle_heavy_speedup\": %.2f,\n"
                 "  \"fully_active_slowdown_pct\": %.2f,\n"
                 "  \"thresholds\": {\"idle_heavy_speedup_min\": 5.0, "
                 "\"fully_active_slowdown_max_pct\": 10.0},\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 speedup, slowdown_pct,
                 idle_ok && active_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_sim_speed.json\n");
  }
  return idle_ok && active_ok ? 0 : 1;
}
