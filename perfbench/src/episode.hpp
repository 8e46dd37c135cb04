// One benchmark episode: a seeded scenario driven to completion through
// the library's public layer calls, plus everything the benchmark
// reports about it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "load/scenario.hpp"
#include "sched/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {

/// Single-fabric episode on the server floorplan (soak, stream,
/// checkpoint).
struct SingleConfig {
  vapres::load::ScenarioSpec spec;
  /// Arm the ICAP fault injector during fault-storm phases (otherwise
  /// they run storm-free). An armed injector forces the exhaustive kernel.
  bool arm_storms = false;
  /// Full-system checkpoint (cold barrier + SystemSnapshot::save) after
  /// every submission; every kRestoreEvery-th blob is restored on the
  /// side and saved again, and the two blobs must be byte-equal.
  bool checkpoint_every_submission = false;
};

/// Fleet episode on FleetSpec::heterogeneous(), with agent crash churn
/// and health ticks every 64 submissions.
struct FleetConfig {
  vapres::load::ScenarioSpec spec;
};

/// Workload events per host-time chunk (see EpisodeStats::chunk_s).
inline constexpr std::uint64_t kChunkEvents = 32;

/// Splits an episode's host time into chunks.
class ChunkClock {
 public:
  /// Closes the current chunk.
  void mark() {
    const auto now = std::chrono::steady_clock::now();
    chunks_.push_back(std::chrono::duration<double>(now - last_).count());
    last_ = now;
  }
  std::vector<double> take() { return std::move(chunks_); }

 private:
  std::chrono::steady_clock::time_point last_ =
      std::chrono::steady_clock::now();
  std::vector<double> chunks_;
};

/// Harness bounds shared by both harnesses (the load/soak defaults).
inline constexpr std::uint64_t kGapBoundCycles = 2000;
inline constexpr std::uint64_t kPipelineSlackWords = 64;
inline constexpr std::size_t kHistoryLimitWords = 4096;

struct EpisodeStats {
  // ---- outcome (simulated, exact) -------------------------------------
  std::uint64_t digest = 0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t lifetimes = 0;     ///< submissions that reached a terminal state
  std::uint64_t non_terminal = 0;  ///< submissions still queued or running
  std::vector<std::uint64_t> launch_latency;  ///< launched_at - submitted_at
  std::uint64_t sim_cycles = 0;    ///< system cycles, summed over fabrics

  // ---- operations and failures ------------------------------------------
  std::uint64_t migrations = 0;
  std::uint64_t migrations_lost = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t snapshot_mismatches = 0;
  std::uint64_t invariant_checks = 0;
  std::vector<std::string> violations;

  // ---- host time ---------------------------------------------------------
  double setup_s = 0.0;  ///< build the system(s) and bring up every site
  double run_s = 0.0;    ///< scenario plus drain, set-up excluded
  /// run_s in consecutive chunks of kChunkEvents workload events (the
  /// drain closes the last chunk), so repeats of an episode can be
  /// compared chunk by chunk.
  std::vector<double> chunk_s;

  // ---- per-layer counts (simulated) -------------------------------------
  std::uint64_t edges_delivered = 0;
  std::uint64_t edges_skipped = 0;
  std::uint64_t component_wakes = 0;
  std::uint64_t domain_sleeps = 0;
  std::uint64_t cycles_active = 0;
  std::uint64_t cycles_quiescent = 0;
  std::uint64_t sink_words = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t fifo_high_watermark = 0;
  std::uint64_t mb_busy_cycles = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t icap_bytes = 0;
  std::uint64_t reconfig_retries = 0;
  std::uint64_t reconfig_failures = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t fault_opportunities = 0;
  std::uint64_t bitman_hits = 0;
  std::uint64_t bitman_misses = 0;
  std::uint64_t bitman_evictions = 0;
  std::uint64_t prefetch_completed = 0;
  std::uint64_t prefetch_useful = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t defrag_migrations = 0;
  std::uint64_t admitted_after_defrag = 0;
  std::uint64_t route_attempts = 0;
  std::uint64_t route_fallbacks = 0;
  std::uint64_t migrations_moved = 0;
  std::uint64_t journal_entries = 0;
  std::uint64_t agent_restarts = 0;
  std::uint64_t health_breaches = 0;
  std::uint64_t snapshot_bytes = 0;

  /// Failures as failed_ratio counts them: invariant violations,
  /// non-terminal lifetimes, lost migrations, snapshot mismatches.
  std::uint64_t failures() const {
    return violations.size() + non_terminal + migrations_lost +
           snapshot_mismatches;
  }
  /// Operations: submissions, migrations, checkpoints and restores.
  std::uint64_t operations() const {
    return submitted + migrations + checkpoints + restores;
  }
};

/// Zeroes the process-global metrics registry and disarms the fault
/// injector (both are process singletons), so an episode sees the same
/// global state whatever ran before it in the process.
void reset_process_globals();

/// Adds one system's end-of-episode counters (core::collect_stats) and
/// one scheduler's accounting to `out`.
void add_system_stats(vapres::core::VapresSystem& sys, EpisodeStats& out);
void add_scheduler_stats(const vapres::sched::ApplicationScheduler& s,
                         EpisodeStats& out);

EpisodeStats run_single(const SingleConfig& cfg, Tracer& tracer);
EpisodeStats run_fleet(const FleetConfig& cfg, Tracer& tracer);

/// Host seconds to build the episode's system(s) and bring up every
/// site — the set-up step of run_single / run_fleet on its own.
double time_single_setup();
double time_fleet_setup();

/// FNV-1a over the eight little-endian bytes of `v`.
inline void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

}  // namespace perfbench
