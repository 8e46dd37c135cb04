// Single-fabric episode harness (soak, stream, checkpoint workloads).
//
// Follows load::run_soak's harness step for step (arrival advance,
// departures, submit + admission, gap arming, churn stops, periodic
// invariant sweeps, drain) so the outcome digest folds the same fields,
// but calls every layer itself so each call can be timed from outside.

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>

#include "core/stats.hpp"
#include "core/system.hpp"
#include "episode.hpp"
#include "load/invariants.hpp"
#include "obs/bus.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/fault.hpp"
#include "snap/system_snapshot.hpp"

namespace perfbench {

using namespace vapres;

namespace {

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Submissions between invariant sweeps (load::run_soak's default).
constexpr std::uint64_t kCheckInterval = 512;
/// Checkpoints between restore round trips on the checkpoint workload.
constexpr std::uint64_t kRestoreEvery = 16;

/// Disarms the process-global injector on every exit path, exceptions
/// included, so a failed episode never leaks a storm into the next.
struct StormGuard {
  ~StormGuard() { sim::FaultInjector::instance().disable(); }
};

struct SingleSite {
  std::unique_ptr<core::VapresSystem> sys;
  std::unique_ptr<sched::ApplicationScheduler> sched;
};

/// The server-floorplan system with every site brought up, capped sink
/// histories, and a default scheduler over it.
SingleSite build_single() {
  SingleSite s;
  s.sys = std::make_unique<core::VapresSystem>(load::server_params());
  s.sys->bring_up_all_sites();
  core::Rsb& rsb = s.sys->rsb(0);
  for (int i = 0; i < rsb.num_ioms(); ++i) {
    rsb.iom(i).set_received_history_limit(kHistoryLimitWords);
  }
  s.sched = std::make_unique<sched::ApplicationScheduler>(*s.sys);
  return s;
}

}  // namespace

double time_single_setup() {
  reset_process_globals();
  const auto t0 = std::chrono::steady_clock::now();
  const SingleSite site = build_single();
  return since(t0);
}

void reset_process_globals() {
  obs::Registry::instance().reset();
  obs::EventBus::instance().disable();
  sim::FaultInjector& inj = sim::FaultInjector::instance();
  inj.enable(0);  // clears plans, counters and the draw stream
  inj.disable();
}

void add_system_stats(core::VapresSystem& sys, EpisodeStats& out) {
  const core::SystemStats st = core::collect_stats(sys);
  out.sim_cycles += st.system_cycles;
  out.edges_delivered += st.kernel.edges_delivered;
  out.edges_skipped += st.kernel.edges_skipped;
  out.component_wakes += st.kernel.component_wakes;
  out.domain_sleeps += st.kernel.domain_sleeps;
  out.cycles_active += st.kernel.cycles_active;
  out.cycles_quiescent += st.kernel.cycles_quiescent;
  for (const core::SiteStats& s : st.sites) {
    if (!s.is_prr) out.sink_words += s.words_in;
    out.stall_cycles += s.stall_cycles;
  }
  for (const core::FifoStats& f : st.fifos) {
    out.fifo_high_watermark = std::max(
        out.fifo_high_watermark, static_cast<std::uint64_t>(f.high_watermark));
  }
  out.mb_busy_cycles += st.mb_busy_cycles;
  out.reconfigurations += static_cast<std::uint64_t>(st.reconfigurations);
  out.icap_bytes += static_cast<std::uint64_t>(st.icap_bytes);
  out.reconfig_retries += st.robustness.reconfig_retries;
  out.reconfig_failures += st.robustness.reconfig_failures;
  out.bitman_hits += st.bitcache.hits;
  out.bitman_misses += st.bitcache.misses;
  out.bitman_evictions += st.bitcache.evictions;
  out.prefetch_completed += st.bitcache.prefetch_completed;
  out.prefetch_useful += st.bitcache.prefetch_useful;
}

void add_scheduler_stats(const sched::ApplicationScheduler& s,
                         EpisodeStats& out) {
  const core::SchedulerAccounting acc = s.accounting();
  out.preemptions += static_cast<std::uint64_t>(acc.preemptions);
  out.defrag_migrations += static_cast<std::uint64_t>(acc.defrag_migrations);
  out.admitted_after_defrag +=
      static_cast<std::uint64_t>(acc.admitted_after_defrag);
}

EpisodeStats run_single(const SingleConfig& cfg, Tracer& tr) {
  reset_process_globals();
  StormGuard storm_guard;
  EpisodeStats res;
  res.digest = kFnvOffset;

  const auto setup_t0 = std::chrono::steady_clock::now();
  SingleSite site = build_single();
  res.setup_s = since(setup_t0);
  std::unique_ptr<core::VapresSystem>& sys = site.sys;
  std::unique_ptr<sched::ApplicationScheduler>& sched = site.sched;
  core::Rsb& rsb = sys->rsb(0);

  tr.set_probe([&sys](std::uint64_t& edges, std::uint64_t& cycles) {
    edges = sys->sim().kernel_stats().edges_delivered;
    cycles = sys->system_clock().cycle_count();
  });

  const auto run_t0 = std::chrono::steady_clock::now();
  ChunkClock chunks;
  const std::uint64_t seed = cfg.spec.seed;
  load::ScenarioGenerator gen(cfg.spec);
  load::InvariantReport inv;
  load::MonotoneClockCheck clock_check;
  std::unordered_set<int> gap_armed;
  int conservation_watermark = 0;
  std::multimap<sim::Cycles, int> departures;
  sim::FaultInjector& injector = sim::FaultInjector::instance();
  bool storm_on = false;

  auto cycle = [&]() { return sys->system_clock().cycle_count(); };
  auto advance_to = [&](sim::Cycles target, std::int64_t app) {
    if (target <= cycle()) return;
    auto span = tr.span(Layer::kAdvance, app);
    sys->run_system_cycles(target - cycle());
  };

  auto stop_checked = [&](int id) {
    const sched::AppRecord& a = sched->app(id);
    load::check_stream_gap(
        a.request.name, rsb.iom(a.sink.iom).max_output_gap(a.sink.channel),
        kGapBoundCycles, inv);
    {
      auto span = tr.span(Layer::kStop, id);
      sched->stop(id);
    }
    const sched::AppRecord& done = sched->app(id);
    fold(res.digest, static_cast<std::uint64_t>(id));
    fold(res.digest, done.final_words_in);
    fold(res.digest, done.final_words_out);
    gap_armed.erase(id);
  };
  auto stop_departed = [&]() {
    while (!departures.empty() && departures.begin()->first <= cycle()) {
      const int id = departures.begin()->second;
      departures.erase(departures.begin());
      if (id >= sched->first_live_id() && sched->app(id).running()) {
        stop_checked(id);
      }
    }
  };

  // The load::run_soak checkpoint sweep: conservation for records gone
  // terminal since the last sweep, retirement, ledger, accounting, clock.
  auto sweep = [&]() {
    for (int id = std::max(conservation_watermark, sched->first_live_id());
         id < sched->num_apps(); ++id) {
      const sched::AppRecord& a = sched->app(id);
      if (a.state == sched::AppState::kQueued || a.running()) break;
      if (a.state != sched::AppState::kRejected) {
        load::check_word_conservation(a, inv, kPipelineSlackWords);
      }
      conservation_watermark = id + 1;
    }
    sched->retire_terminal();
    load::check_resource_ledger(*sched, inv);
    load::check_accounting(*sched, inv);
    clock_check.observe(*sys, inv);
  };

  auto checkpoint = [&](std::uint64_t processed, std::int64_t app) {
    {
      auto span = tr.span(Layer::kSnapBarrier, app);
      sys->drain_transfer_path();
      while (sys->prefetch().pending() > 0 || sys->prefetch().staging()) {
        sys->run_system_cycles(64);
      }
    }
    std::string blob;
    {
      auto span = tr.span(Layer::kSnapSave, app);
      blob = snap::SystemSnapshot::save(*sys, processed, sched.get());
    }
    ++res.checkpoints;
    res.snapshot_bytes += blob.size();
    if (res.checkpoints % kRestoreEvery != 0) return;
    std::unique_ptr<core::VapresSystem> side;
    std::unique_ptr<sched::ApplicationScheduler> side_sched;
    {
      auto span = tr.span(Layer::kSnapRestore, app);
      side = snap::SystemSnapshot::restore_system(blob, load::server_params());
      side_sched = snap::SystemSnapshot::restore_scheduler(blob, *side);
    }
    ++res.restores;
    std::string again;
    {
      auto span = tr.span(Layer::kSnapSave, app);
      again = snap::SystemSnapshot::save(*side, processed, side_sched.get());
    }
    if (again != blob) {
      ++res.snapshot_mismatches;
      inv.fail("checkpoint " + std::to_string(processed) +
               ": restored system re-saves to different bytes");
    }
  };

  while (true) {
    std::optional<load::WorkloadEvent> ev;
    {
      auto span = tr.span(Layer::kGen,
                          static_cast<std::int64_t>(gen.state().sequence));
      ev = gen.next();
    }
    if (!ev) break;
    const std::int64_t app = static_cast<std::int64_t>(ev->sequence);
    auto event_span = tr.span(Layer::kEvent, app);
    const load::Phase& ph = gen.spec().phases[ev->phase_index];

    // Fault-storm phases arm the ICAP corruption site for their
    // duration, exactly as load::run_soak does.
    const bool want_storm = cfg.arm_storms && ph.icap_fault_probability > 0.0;
    if (want_storm && !storm_on) {
      injector.enable(seed ^ 0x5107A1C0FFEEULL);
      injector.set_probability(sim::FaultSite::kIcapBitstreamCorruption,
                               ph.icap_fault_probability);
      storm_on = true;
    } else if (!want_storm && storm_on) {
      injector.disable();
      storm_on = false;
    }

    advance_to(ev->at_cycle, app);
    stop_departed();

    int id = -1;
    {
      auto span = tr.span(Layer::kAdmit, app);
      id = sched->submit(ev->request);
      sched->run_admission();
    }
    const sched::AppRecord& rec = sched->app(id);
    if (rec.running()) {
      res.launch_latency.push_back(rec.launched_at - rec.submitted_at);
      departures.emplace(cycle() + ev->hold_cycles, id);
    }
    if (sched->queued_count() != 0) {
      inv.fail("submission " + std::to_string(id) +
               " still queued after run_admission");
    }

    {
      auto span = tr.span(Layer::kCheck, app);
      fold(res.digest, ev->sequence);
      fold(res.digest, ev->at_cycle);
      fold(res.digest, static_cast<std::uint64_t>(ev->class_index));
      fold(res.digest, static_cast<std::uint64_t>(ev->request.priority));
      fold(res.digest,
           static_cast<std::uint64_t>(ev->request.source_interval_cycles));
      fold(res.digest, ev->request.source_words);
      fold(res.digest, ev->hold_cycles);
      fold(res.digest, ev->churn_stop ? 1u : 0u);
      fold(res.digest, static_cast<std::uint64_t>(id));
      fold(res.digest, static_cast<std::uint64_t>(rec.verdict));

      // Arm gap statistics for every fresh launch: sink channels are
      // reused across tenants, so the gap window starts at this one.
      const std::vector<int> running = sched->running_apps();
      for (auto it = gap_armed.begin(); it != gap_armed.end();) {
        it = std::find(running.begin(), running.end(), *it) != running.end()
                 ? std::next(it)
                 : gap_armed.erase(it);
      }
      for (const int rid : running) {
        if (gap_armed.insert(rid).second) {
          const sched::AppRecord& a = sched->app(rid);
          rsb.iom(a.sink.iom).reset_gap_stats(a.sink.channel);
        }
      }
    }

    if (ev->churn_stop) {
      const std::vector<int> running = sched->running_apps();
      if (!running.empty()) stop_checked(running.front());
    }

    if ((ev->sequence + 1) % kCheckInterval == 0) {
      auto span = tr.span(Layer::kCheck, app);
      sweep();
    }
    if (cfg.checkpoint_every_submission) checkpoint(ev->sequence + 1, app);
    if ((ev->sequence + 1) % kChunkEvents == 0) chunks.mark();
  }

  if (storm_on) {
    injector.disable();
    storm_on = false;
  }

  {
    auto drain_span = tr.span(Layer::kDrain, -1);
    while (!departures.empty()) {
      advance_to(departures.begin()->first, departures.begin()->second);
      stop_departed();
    }
    for (const int id : sched->running_apps()) stop_checked(id);
    auto span = tr.span(Layer::kCheck, -1);
    sweep();
  }
  chunks.mark();
  res.run_s = since(run_t0);
  res.chunk_s = chunks.take();
  tr.set_probe(nullptr);

  const core::SchedulerAccounting acc = sched->accounting();
  res.submitted = static_cast<std::uint64_t>(acc.submitted);
  res.admitted = static_cast<std::uint64_t>(acc.admitted);
  res.non_terminal = static_cast<std::uint64_t>(
      sched->running_apps().size() +
      static_cast<std::size_t>(sched->queued_count()));
  res.lifetimes = res.submitted - res.non_terminal;
  if (res.submitted != gen.spec().total_submissions()) {
    inv.fail("submitted " + std::to_string(res.submitted) + " of " +
             std::to_string(gen.spec().total_submissions()));
  }
  res.faults_injected =
      injector.injected(sim::FaultSite::kIcapBitstreamCorruption);
  res.fault_opportunities =
      injector.opportunities(sim::FaultSite::kIcapBitstreamCorruption);
  add_system_stats(*sys, res);
  add_scheduler_stats(*sched, res);
  res.invariant_checks = inv.checks_run;
  res.violations = inv.violations;
  return res;
}

}  // namespace perfbench
