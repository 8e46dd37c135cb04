// Fleet episode harness (fleet workload).
//
// Follows load::run_fleet_soak's harness step for step (fleet advance,
// departures, crash-churn kill draws, routed submissions, migration
// churn, churn stops, health ticks, per-fabric invariant sweeps with
// journal replay checks, drain), calling the ControlPlane itself so each
// call can be timed from outside.

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>

#include "episode.hpp"
#include "fleet/controlplane.hpp"
#include "load/invariants.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace perfbench {

using namespace vapres;

namespace {

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Routed submissions between agent kills (crash churn), between
/// ControlPlane::health_tick calls, and between invariant sweeps.
constexpr std::uint64_t kCrashChurnEvery = 64;
constexpr std::uint64_t kHealthTickEvery = 64;
constexpr std::uint64_t kCheckInterval = 256;

/// The route-order latency histograms the standard first-choice p99
/// health rule watches (recorded exactly as load::run_fleet_soak does).
std::string route_hist_name(const std::string& fabric, bool first_choice) {
  return "fleet.route." + fabric +
         (first_choice ? ".first.cycles" : ".fallback.cycles");
}

/// FleetSpec::heterogeneous() with the standard health rules, every
/// fabric brought up, and capped sink histories.
std::unique_ptr<fleet::ControlPlane> build_fleet() {
  fleet::FleetSpec spec = fleet::FleetSpec::heterogeneous();
  spec.health.enabled = true;
  spec.health.rules = fleet::standard_health_rules(spec);
  auto fc = std::make_unique<fleet::ControlPlane>(spec);
  for (int i = 0; i < fc->num_fabrics(); ++i) {
    core::Rsb& rsb = fc->system(i).rsb(0);
    for (int j = 0; j < rsb.num_ioms(); ++j) {
      rsb.iom(j).set_received_history_limit(kHistoryLimitWords);
    }
  }
  return fc;
}

}  // namespace

double time_fleet_setup() {
  reset_process_globals();
  const auto t0 = std::chrono::steady_clock::now();
  const std::unique_ptr<fleet::ControlPlane> fc = build_fleet();
  return since(t0);
}

EpisodeStats run_fleet(const FleetConfig& cfg, Tracer& tr) {
  reset_process_globals();
  EpisodeStats res;
  res.digest = kFnvOffset;

  const auto setup_t0 = std::chrono::steady_clock::now();
  const std::unique_ptr<fleet::ControlPlane> plane = build_fleet();
  res.setup_s = since(setup_t0);
  fleet::ControlPlane& fc = *plane;
  const int nf = fc.num_fabrics();

  tr.set_probe([&fc, nf](std::uint64_t& edges, std::uint64_t& cycles) {
    edges = 0;
    cycles = 0;
    for (int i = 0; i < nf; ++i) {
      edges += fc.system(i).sim().kernel_stats().edges_delivered;
      cycles += fc.system(i).system_clock().cycle_count();
    }
  });

  const auto run_t0 = std::chrono::steady_clock::now();
  ChunkClock chunks;
  load::ScenarioGenerator gen(cfg.spec);
  load::InvariantReport inv;
  const auto unf = static_cast<std::size_t>(nf);
  std::vector<sim::Cycles> last_cycle(unf, 0);
  sim::Cycles last_fleet_now = 0;
  bool clock_seen = false;
  std::vector<int> conservation_watermark(unf, 0);
  std::map<int, fleet::FleetAppId> gap_armed;
  // Fleet id -> workload sequence number, the lifetime id spans carry.
  std::map<int, std::int64_t> lifetime_of;
  auto lifetime = [&](int fleet_id) {
    const auto it = lifetime_of.find(fleet_id);
    return it == lifetime_of.end() ? std::int64_t{-1} : it->second;
  };

  // Crash churn draws come from their own stream, never the workload's.
  sim::SplitMix64 kill_rng(cfg.spec.seed ^ 0xc5a5ce55c5a5ce55ULL);
  std::uint64_t since_kill = 0;
  std::uint64_t seen_restarts = 0;
  auto maybe_schedule_kill = [&]() {
    if (++since_kill < kCrashChurnEvery) return;
    since_kill = 0;
    const int named = 4;  // router, quota, migration, health
    const std::uint64_t pick =
        kill_rng.next() % static_cast<std::uint64_t>(named + nf);
    fleet::AgentId agent = fleet::AgentId::kRouter;
    if (pick == 1) {
      agent = fleet::AgentId::kQuota;
    } else if (pick == 2) {
      agent = fleet::AgentId::kMigration;
    } else if (pick == 3) {
      agent = fleet::AgentId::kHealth;
    } else if (pick >= static_cast<std::uint64_t>(named)) {
      agent = fleet::fabric_agent_id(
          static_cast<int>(pick - static_cast<std::uint64_t>(named)));
    }
    const std::uint64_t offset = 1 + kill_rng.next() % 8;
    fc.schedule_kill(agent, fc.statedb().version() + offset);
    fold(res.digest, pick);
    fold(res.digest, offset);
  };
  auto replay_check = [&](const char* when, std::int64_t app) {
    auto span = tr.span(Layer::kReplayCheck, app);
    ++inv.checks_run;
    if (fc.statedb().replayed_view_digest() != fc.statedb().view_digest()) {
      inv.fail(std::string("journal replay diverged from the live view ") +
               when + " (version " + std::to_string(fc.statedb().version()) +
               ")");
    }
  };
  // After a restart fired mid-pump, the restarted plane must reconverge:
  // clean reconcile sweep and a journal replay equal to the live view.
  auto absorb_restarts = [&](std::int64_t app) {
    const std::uint64_t r = fc.agent_restarts();
    if (r == seen_restarts) return;
    seen_restarts = r;
    ++inv.checks_run;
    for (const std::string& v : fc.reconcile()) {
      inv.fail("post-restart reconcile: " + v);
    }
    replay_check("after an agent restart", app);
  };

  auto stop_checked = [&](int fleet_id) {
    const fleet::FleetAppId loc = *fc.locate(fleet_id);
    const sched::AppRecord& a = fc.record_of(fleet_id);
    core::Iom& iom = fc.system(loc.fabric).rsb(0).iom(a.sink.iom);
    load::check_stream_gap(a.request.name,
                           iom.max_output_gap(a.sink.channel),
                           kGapBoundCycles, inv);
    {
      auto span = tr.span(Layer::kStop, lifetime(fleet_id));
      fc.stop(fleet_id);
    }
    const sched::AppRecord& done = fc.record_of(fleet_id);
    fold(res.digest, static_cast<std::uint64_t>(fleet_id));
    fold(res.digest, done.final_words_in);
    fold(res.digest, done.final_words_out);
    gap_armed.erase(fleet_id);
  };

  std::multimap<sim::Cycles, int> departures;  // fleet time -> fleet id
  auto stop_departed = [&]() {
    while (!departures.empty() && departures.begin()->first <= fc.now()) {
      const int id = departures.begin()->second;
      departures.erase(departures.begin());
      if (fc.running(id)) stop_checked(id);
    }
  };
  auto advance_to = [&](sim::Cycles target, std::int64_t app) {
    auto span = tr.span(Layer::kAdvance, app);
    fc.advance_to(target);
  };

  // The load::run_fleet_soak checkpoint sweep.
  auto sweep = [&](std::int64_t app) {
    for (int i = 0; i < nf; ++i) {
      const sched::ApplicationScheduler& s = fc.scheduler(i);
      int& mark = conservation_watermark[static_cast<std::size_t>(i)];
      for (int id = std::max(mark, s.first_live_id()); id < s.num_apps();
           ++id) {
        const sched::AppRecord& a = s.app(id);
        if (a.state == sched::AppState::kQueued || a.running()) break;
        if (a.state != sched::AppState::kRejected) {
          load::check_word_conservation(a, inv, kPipelineSlackWords);
        }
        mark = id + 1;
      }
    }
    fc.retire_terminal();
    for (int i = 0; i < nf; ++i) {
      load::check_resource_ledger(fc.scheduler(i), inv);
      load::check_accounting(fc.scheduler(i), inv);
      ++inv.checks_run;
      const sim::Cycles c = fc.system(i).system_clock().cycle_count();
      if (c < last_cycle[static_cast<std::size_t>(i)]) {
        inv.fail("fabric " + fc.fabric_name(i) + ": clock went backwards");
      }
      last_cycle[static_cast<std::size_t>(i)] = c;
    }
    ++inv.checks_run;
    const sim::Cycles fleet_now = fc.now();
    if (clock_seen && fleet_now <= last_fleet_now) {
      inv.fail("fleet time stalled at " + std::to_string(fleet_now) +
               " cycles across a checkpoint interval");
    }
    last_fleet_now = fleet_now;
    clock_seen = true;
    replay_check("at a sweep", app);
    fc.truncate_journal();
  };

  auto arm_running = [&]() {
    for (const int rid : fc.running_ids()) {
      const fleet::FleetAppId loc = *fc.locate(rid);
      const auto it = gap_armed.find(rid);
      if (it != gap_armed.end() && it->second.fabric == loc.fabric &&
          it->second.app == loc.app) {
        continue;
      }
      const sched::AppRecord& a = fc.record_of(rid);
      fc.system(loc.fabric).rsb(0).iom(a.sink.iom).reset_gap_stats(
          a.sink.channel);
      gap_armed[rid] = loc;
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

    advance_to(ev->at_cycle, app);
    stop_departed();

    fold(res.digest, ev->sequence);
    fold(res.digest, ev->at_cycle);
    fold(res.digest, static_cast<std::uint64_t>(ev->class_index));
    fold(res.digest, static_cast<std::uint64_t>(ev->request.priority));
    fold(res.digest,
         static_cast<std::uint64_t>(ev->request.source_interval_cycles));
    fold(res.digest, ev->request.source_words);
    fold(res.digest, ev->hold_cycles);
    fold(res.digest, ev->churn_stop ? 1u : 0u);
    fold(res.digest, static_cast<std::uint64_t>(ev->tenant));
    fold(res.digest, ev->migrate ? 1u : 0u);

    maybe_schedule_kill();
    fleet::RouteDecision d;
    {
      auto span = tr.span(Layer::kFleetSubmit, app);
      d = fc.submit("t" + std::to_string(ev->tenant), ev->request);
    }
    res.route_attempts += static_cast<std::uint64_t>(d.attempts);
    absorb_restarts(app);
    {
      auto span = tr.span(Layer::kCheck, app);
      fold(res.digest, d.admitted ? 1u : 0u);
      fold(res.digest, static_cast<std::uint64_t>(d.fabric + 1));
      fold(res.digest, static_cast<std::uint64_t>(d.verdict));
      fold(res.digest, d.quota_limited ? 1u : 0u);
      if (d.admitted) {
        lifetime_of[d.fleet_id] = app;
        departures.emplace(fc.now() + ev->hold_cycles, d.fleet_id);
        const sched::AppRecord& rec = fc.record_of(d.fleet_id);
        const sim::Cycles latency = rec.launched_at - rec.submitted_at;
        res.launch_latency.push_back(latency);
        const bool first_choice =
            !d.order.empty() && d.order.front() == d.fabric;
        obs::Registry::instance()
            .histogram(route_hist_name(fc.fabric_name(d.fabric), first_choice))
            .record(latency);
      }
      for (auto it = gap_armed.begin(); it != gap_armed.end();) {
        it = fc.running(it->first) ? std::next(it) : gap_armed.erase(it);
      }
      arm_running();
    }

    // Migration churn: the oldest app on the busiest fabric moves to the
    // least-utilized other fabric (ties to the lowest index).
    if (ev->migrate && nf > 1) {
      int src = 0;
      for (int i = 1; i < nf; ++i) {
        if (fc.running_on(i) > fc.running_on(src)) src = i;
      }
      int victim = -1;
      for (const int rid : fc.running_ids()) {
        if (fc.locate(rid)->fabric == src) {
          victim = rid;
          break;
        }
      }
      if (victim >= 0) {
        int dst = -1;
        for (int i = 0; i < nf; ++i) {
          if (i == src) continue;
          if (dst < 0 || fc.scheduler(i).fabric_utilization() <
                             fc.scheduler(dst).fabric_utilization()) {
            dst = i;
          }
        }
        fleet::MigrateResult mr;
        {
          auto span = tr.span(Layer::kFleetMigrate, lifetime(victim));
          mr = fc.migrate(victim, dst);
        }
        absorb_restarts(app);
        ++res.migrations;
        if (mr.outcome == fleet::MigrateOutcome::kLost) {
          ++res.migrations_lost;
        }
        fold(res.digest, static_cast<std::uint64_t>(victim));
        fold(res.digest, static_cast<std::uint64_t>(mr.outcome));
        auto span = tr.span(Layer::kCheck, app);
        arm_running();
      }
    }

    if (ev->churn_stop) {
      const std::vector<int> running = fc.running_ids();
      if (!running.empty()) stop_checked(running.front());
    }

    if ((ev->sequence + 1) % kHealthTickEvery == 0) {
      std::uint64_t tripped = 0;
      {
        auto span = tr.span(Layer::kHealthTick, app);
        tripped = fc.health_tick();
      }
      absorb_restarts(app);
      fold(res.digest, tripped);
      fold(res.digest,
           static_cast<std::uint64_t>(fc.statedb().available_fabrics()));
    }

    if ((ev->sequence + 1) % kCheckInterval == 0) {
      auto span = tr.span(Layer::kCheck, app);
      sweep(app);
    }
    if ((ev->sequence + 1) % kChunkEvents == 0) chunks.mark();
  }

  {
    auto drain_span = tr.span(Layer::kDrain, -1);
    while (!departures.empty()) {
      const sim::Cycles next = departures.begin()->first;
      if (next > fc.now()) {
        advance_to(next, lifetime(departures.begin()->second));
      }
      stop_departed();
    }
    for (const int id : fc.running_ids()) stop_checked(id);
    auto span = tr.span(Layer::kCheck, -1);
    sweep(-1);
  }
  chunks.mark();
  res.run_s = since(run_t0);
  res.chunk_s = chunks.take();
  tr.set_probe(nullptr);

  const fleet::ControlPlane::Counters& c = fc.counters();
  res.submitted = c.submissions;
  res.admitted = c.admitted;
  res.non_terminal = fc.running_ids().size();
  for (int i = 0; i < nf; ++i) {
    res.non_terminal +=
        static_cast<std::uint64_t>(fc.scheduler(i).queued_count());
  }
  res.lifetimes = res.submitted - res.non_terminal;
  if (res.submitted != gen.spec().total_submissions()) {
    inv.fail("submitted " + std::to_string(res.submitted) + " of " +
             std::to_string(gen.spec().total_submissions()));
  }
  res.route_fallbacks = c.fallbacks;
  res.migrations_moved = c.migrations_moved;
  res.journal_entries = fc.statedb().version();
  res.agent_restarts = fc.agent_restarts();
  res.health_breaches = c.breaches_tripped;
  for (int i = 0; i < nf; ++i) {
    add_system_stats(fc.system(i), res);
    add_scheduler_stats(fc.scheduler(i), res);
  }
  res.invariant_checks = inv.checks_run;
  res.violations = inv.violations;
  return res;
}

}  // namespace perfbench
