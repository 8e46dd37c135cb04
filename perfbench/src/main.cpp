// perfbench: the repo benchmark program.
//
//   perfbench --workload <soak|stream|fleet|checkpoint> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// A run executes K episodes of one workload, K fixed by --seconds; each
// episode's scenario seed is drawn from --seed, so a seed always yields
// the same inputs and the same simulated outcome, whatever the host
// speed. --trace 0 prints the end-to-end metrics of one untraced pass.
// --trace 1 runs that pass, then a fault-storm episode, then the same
// episodes again with spans recorded around every layer call, and prints
// the per-layer metrics; the two passes must produce identical digests.
// Every correctness failure is counted; any failure exits 1. The last
// line of output is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "episode.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

using vapres::load::Arrivals;
using vapres::load::Phase;
using vapres::load::ScenarioSpec;

using Plan = std::variant<SingleConfig, FleetConfig>;

// ---- workloads -----------------------------------------------------------

/// The run length the episode counts below are sized for.
constexpr double kReferenceSeconds = 20.0;

struct Workload {
  const char* name;
  /// Episodes in a run of kReferenceSeconds; scaled with --seconds, and
  /// at least one runs.
  double episodes;
  /// Runs of each episode, spread over the run (see run_pass).
  int repeats;
  Plan (*plan)(std::uint64_t episode_seed);
};

/// The standard soak scenario (warmup, steady, bursty, churn) without
/// arming its fault storm.
Plan soak_plan(std::uint64_t seed) {
  SingleConfig c;
  c.spec = ScenarioSpec::standard(seed, 2000);
  return c;
}

/// The fault storm the traced run executes before its traced pass: a
/// short standard soak whose two-submission storm phase arms the ICAP
/// injector, as load::run_soak does.
Plan storm_plan(std::uint64_t seed) {
  SingleConfig c;
  c.spec = ScenarioSpec::standard(seed, 40);
  c.arm_storms = true;
  return c;
}

/// Sparse arrivals of long rate-1/2 streams over the standard
/// single-module classes. The two-module chain class is left out: its
/// launch takes one, two or three small-PRR transfers' worth of time
/// depending on which PRRs the resident app holds, so with about 100
/// samples the p99 (the maximum) would jump 1.5x between seeds.
Plan stream_plan(std::uint64_t seed) {
  SingleConfig c;
  c.spec.seed = seed;
  for (vapres::load::AppClass k : vapres::load::standard_classes()) {
    if (k.modules.size() != 1) continue;
    k.min_words = 25'000;
    k.max_words = 25'000;
    k.min_interval_shift = 0;
    k.max_interval_shift = 0;
    k.min_hold_cycles = 400'000;
    k.max_hold_cycles = 800'000;
    c.spec.classes.push_back(std::move(k));
  }
  Phase p;
  p.name = "stream";
  p.arrivals = Arrivals::kPoisson;
  p.mean_interarrival_cycles = 1.5e6;
  p.submissions = 24;
  c.spec.phases.push_back(p);
  return c;
}

/// The 3-tenant fleet soak with migration churn on the heterogeneous
/// fleet; crash churn and health ticks every 64 submissions.
Plan fleet_plan(std::uint64_t seed) {
  FleetConfig c;
  c.spec = ScenarioSpec::standard_fleet(seed, 1000, 3, 4);
  return c;
}

/// The storm-free soak with a full-system checkpoint after every
/// submission; every 16th blob is restored on the side and re-saved.
Plan checkpoint_plan(std::uint64_t seed) {
  SingleConfig c;
  c.spec = ScenarioSpec::standard(seed, 1500);
  c.checkpoint_every_submission = true;
  return c;
}

constexpr Workload kWorkloads[] = {
    {"soak", 4.0, 5, soak_plan},
    {"stream", 4.0, 4, stream_plan},
    {"fleet", 5.0, 5, fleet_plan},
    {"checkpoint", 3.0, 4, checkpoint_plan},
};

EpisodeStats run_plan(const Plan& plan, Tracer& tracer) {
  if (const auto* s = std::get_if<SingleConfig>(&plan)) {
    return run_single(*s, tracer);
  }
  return run_fleet(std::get<FleetConfig>(plan), tracer);
}

// ---- statistics ----------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of `v`; 0 for an empty set.
template <typename T>
T percentile(std::vector<T> v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<std::uint64_t>& v) {
  double total = 0.0;
  for (const std::uint64_t x : v) total += static_cast<double>(x);
  return ratio(total, static_cast<double>(v.size()));
}

/// Episode results of one pass, pooled.
struct Pass {
  /// One entry per plan; run_s sums its chunks' fastest repeats.
  std::vector<EpisodeStats> episodes;
  std::vector<std::vector<double>> repeat_s;  ///< every repeat's run_s
  std::vector<double> setups;                 ///< every repeat's setup_s
  double run_s = 0.0;
  std::uint64_t digest = kFnvOffset;
  std::uint64_t repeats_run = 0;
  std::uint64_t repeat_mismatches = 0;  ///< repeats whose digest differed

  template <typename F>
  std::uint64_t sum(F field) const {
    std::uint64_t total = 0;
    for (const EpisodeStats& e : episodes) total += field(e);
    return total;
  }
  std::vector<std::uint64_t> latencies() const {
    std::vector<std::uint64_t> all;
    for (const EpisodeStats& e : episodes) {
      all.insert(all.end(), e.launch_latency.begin(), e.launch_latency.end());
    }
    return all;
  }
};

/// Runs the plans in order, `repeats` rounds over all of them. Repeats
/// of a plan must reproduce its digest. They do identical work, and
/// interference from other processes on the host only ever adds time, so
/// each chunk of a plan (EpisodeStats::chunk_s) counts at its fastest
/// repeat, and a plan's host time is the sum of those chunk minima.
/// Spreading the repeats over the whole run lets every chunk meet the
/// host's quiet moments.
///
/// After every episode, `extra_setups` stand-alone set-ups are timed as
/// well, so set-up samples are spread over the whole run.
Pass run_pass(const std::vector<Plan>& plans, Tracer& tracer, int repeats,
              int extra_setups = 0) {
  Pass pass;
  pass.repeat_s.resize(plans.size());
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      EpisodeStats e = run_plan(plans[i], tracer);
      pass.repeat_s[i].push_back(e.run_s);
      pass.setups.push_back(e.setup_s);
      for (int j = 0; j < extra_setups; ++j) {
        pass.setups.push_back(std::holds_alternative<FleetConfig>(plans[i])
                                  ? time_fleet_setup()
                                  : time_single_setup());
      }
      if (r == 0) {
        pass.episodes.push_back(std::move(e));
        continue;
      }
      ++pass.repeats_run;
      EpisodeStats& first = pass.episodes[i];
      if (e.digest != first.digest ||
          e.chunk_s.size() != first.chunk_s.size()) {
        ++pass.repeat_mismatches;
        continue;
      }
      for (std::size_t c = 0; c < e.chunk_s.size(); ++c) {
        first.chunk_s[c] = std::min(first.chunk_s[c], e.chunk_s[c]);
      }
    }
  }
  for (EpisodeStats& e : pass.episodes) {
    e.run_s = 0.0;
    for (const double c : e.chunk_s) e.run_s += c;
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    pass.run_s += pass.episodes[i].run_s;
    fold(pass.digest, pass.episodes[i].digest);
  }
  return pass;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-34s %-22s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

/// Peak resident set of this process image. VmHWM starts afresh at
/// exec; getrusage's ru_maxrss would carry over the peak of the process
/// that forked this one (the Python launcher's, larger than ours).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

std::vector<Metric> end_to_end(const Pass& p, double setup_s) {
  const std::vector<std::uint64_t> lat = p.latencies();
  return {
      {"lifetimes_per_s",
       ratio(static_cast<double>(
                 p.sum([](const EpisodeStats& e) { return e.lifetimes; })),
             p.run_s),
       "lifetimes/s"},
      {"sim_cycles_per_s",
       ratio(static_cast<double>(
                 p.sum([](const EpisodeStats& e) { return e.sim_cycles; })),
             p.run_s),
       "cycles/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"submit_to_launch_mean_mb_cycles", mean(lat), "mb_cycles"},
      {"submit_to_launch_p99_mb_cycles",
       static_cast<double>(percentile(lat, 0.99)), "mb_cycles"},
      {"admit_ratio",
       ratio(static_cast<double>(
                 p.sum([](const EpisodeStats& e) { return e.admitted; })),
             static_cast<double>(
                 p.sum([](const EpisodeStats& e) { return e.submitted; }))),
       "ratio"},
  };
}

std::vector<Metric> per_layer(const Pass& traced, const Tracer& tr,
                              const EpisodeStats& storm,
                              double overhead_ratio) {
  const std::vector<LayerTotals> t = tr.totals();
  auto L = [&](Layer l) -> const LayerTotals& {
    return t[static_cast<std::size_t>(l)];
  };
  auto calls = [&](Layer l) { return static_cast<double>(L(l).calls); };
  auto host_s = [&](Layer l) { return L(l).self_s; };
  auto pct_us = [&](Layer l, double q) {
    return percentile(L(l).durations_s, q) * 1e6;
  };
  auto sum = [&](std::uint64_t EpisodeStats::*field) {
    std::uint64_t total = 0;
    for (const EpisodeStats& e : traced.episodes) total += e.*field;
    return static_cast<double>(total);
  };
  const double fifo_hwm = [&] {
    std::uint64_t m = 0;
    for (const EpisodeStats& e : traced.episodes) {
      m = std::max(m, e.fifo_high_watermark);
    }
    return static_cast<double>(m);
  }();
  const double migrations = sum(&EpisodeStats::migrations);
  const double checkpoints = sum(&EpisodeStats::checkpoints);
  const double fleet_submits = calls(Layer::kFleetSubmit);

  return {
      {"load.gen.host_s", host_s(Layer::kGen), "s"},
      {"load.check.host_s", host_s(Layer::kCheck), "s"},
      {"sim.advance.calls", calls(Layer::kAdvance), "count"},
      {"sim.advance.host_s", host_s(Layer::kAdvance), "s"},
      {"sim.advance.cycles", static_cast<double>(L(Layer::kAdvance).cycles),
       "cycles"},
      {"sim.edges_delivered", sum(&EpisodeStats::edges_delivered), "count"},
      {"sim.edges_skipped", sum(&EpisodeStats::edges_skipped), "count"},
      {"sim.component_wakes", sum(&EpisodeStats::component_wakes), "count"},
      {"sim.domain_sleeps", sum(&EpisodeStats::domain_sleeps), "count"},
      {"sim.active_cycle_ratio",
       ratio(sum(&EpisodeStats::cycles_active),
             sum(&EpisodeStats::cycles_active) +
                 sum(&EpisodeStats::cycles_quiescent)),
       "ratio"},
      {"sim.ns_per_edge",
       ratio(host_s(Layer::kAdvance) * 1e9,
             static_cast<double>(L(Layer::kAdvance).edges)),
       "ns"},
      {"comm.sink_words", sum(&EpisodeStats::sink_words), "words"},
      {"comm.stall_cycles", sum(&EpisodeStats::stall_cycles), "cycles"},
      {"comm.fifo_high_watermark", fifo_hwm, "words"},
      {"proc.mb_busy_cycles", sum(&EpisodeStats::mb_busy_cycles),
       "mb_cycles"},
      {"sched.submit_to_launch.p50_mb_cycles",
       static_cast<double>(percentile(traced.latencies(), 0.50)),
       "mb_cycles"},
      {"sched.admit.calls", calls(Layer::kAdmit), "count"},
      {"sched.admit.host_s", host_s(Layer::kAdmit), "s"},
      {"sched.admit.p50_us", pct_us(Layer::kAdmit, 0.50), "us"},
      {"sched.admit.p99_us", pct_us(Layer::kAdmit, 0.99), "us"},
      {"sched.admit.edges", static_cast<double>(L(Layer::kAdmit).edges),
       "count"},
      {"sched.admit.sim_cycles", static_cast<double>(L(Layer::kAdmit).cycles),
       "cycles"},
      {"sched.stop.calls", calls(Layer::kStop), "count"},
      {"sched.stop.host_s", host_s(Layer::kStop), "s"},
      {"sched.stop.p99_us", pct_us(Layer::kStop, 0.99), "us"},
      {"sched.preemptions", sum(&EpisodeStats::preemptions), "count"},
      {"sched.defrag_migrations", sum(&EpisodeStats::defrag_migrations),
       "count"},
      {"sched.admitted_after_defrag",
       sum(&EpisodeStats::admitted_after_defrag), "count"},
      {"reconfig.count", sum(&EpisodeStats::reconfigurations), "count"},
      {"reconfig.icap_mb",
       sum(&EpisodeStats::icap_bytes) / (1024.0 * 1024.0), "MiB"},
      {"reconfig.retries", sum(&EpisodeStats::reconfig_retries), "count"},
      {"reconfig.failures", sum(&EpisodeStats::reconfig_failures), "count"},
      {"fault.storm.host_s", storm.run_s, "s"},
      {"fault.storm.edges", static_cast<double>(storm.edges_delivered),
       "count"},
      {"fault.injected", static_cast<double>(storm.faults_injected), "count"},
      {"fault.opportunities", static_cast<double>(storm.fault_opportunities),
       "count"},
      {"bitman.hit_ratio",
       ratio(sum(&EpisodeStats::bitman_hits),
             sum(&EpisodeStats::bitman_hits) +
                 sum(&EpisodeStats::bitman_misses)),
       "ratio"},
      {"bitman.evictions", sum(&EpisodeStats::bitman_evictions), "count"},
      {"bitman.prefetch_useful_ratio",
       ratio(sum(&EpisodeStats::prefetch_useful),
             sum(&EpisodeStats::prefetch_completed)),
       "ratio"},
      {"fleet.submit.calls", fleet_submits, "count"},
      {"fleet.submit.host_s", host_s(Layer::kFleetSubmit), "s"},
      {"fleet.submit.p99_us", pct_us(Layer::kFleetSubmit, 0.99), "us"},
      {"fleet.route.attempts_per_submit",
       ratio(sum(&EpisodeStats::route_attempts), fleet_submits),
       "attempts/submit"},
      {"fleet.route.fallback_ratio",
       ratio(sum(&EpisodeStats::route_fallbacks), fleet_submits), "ratio"},
      {"fleet.migrate.calls", calls(Layer::kFleetMigrate), "count"},
      {"fleet.migrate.host_s", host_s(Layer::kFleetMigrate), "s"},
      {"fleet.migrate.moved_ratio",
       ratio(sum(&EpisodeStats::migrations_moved), migrations), "ratio"},
      {"fleet.replay_check.host_s", host_s(Layer::kReplayCheck), "s"},
      {"fleet.journal.entries", sum(&EpisodeStats::journal_entries), "count"},
      {"fleet.agent_restarts", sum(&EpisodeStats::agent_restarts), "count"},
      {"snap.save.calls", calls(Layer::kSnapSave), "count"},
      {"snap.save.host_s", host_s(Layer::kSnapSave), "s"},
      {"snap.save.p99_us", pct_us(Layer::kSnapSave, 0.99), "us"},
      {"snap.save.bytes", ratio(sum(&EpisodeStats::snapshot_bytes), checkpoints),
       "B/save"},
      {"snap.restore.calls", calls(Layer::kSnapRestore), "count"},
      {"snap.restore.host_s", host_s(Layer::kSnapRestore), "s"},
      {"health.tick.calls", calls(Layer::kHealthTick), "count"},
      {"health.tick.host_s", host_s(Layer::kHealthTick), "s"},
      {"health.breaches", sum(&EpisodeStats::health_breaches), "count"},
      {"trace.overhead_ratio", overhead_ratio, "ratio"},
  };
}

/// Self time per layer as a share of the traced pass, largest first.
void print_self_time(const Tracer& tr, double pass_s) {
  const std::vector<LayerTotals> t = tr.totals();
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].calls > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return t[a].self_s > t[b].self_s;
  });
  std::printf("  %-20s %10s %10s %7s %14s %14s\n", "layer", "calls",
              "self_s", "share", "edges", "sim_cycles");
  for (const std::size_t i : order) {
    std::printf("  %-20s %10" PRIu64 " %10.4f %6.1f%% %14" PRIu64
                " %14" PRIu64 "\n",
                layer_name(static_cast<Layer>(i)), t[i].calls, t[i].self_s,
                100.0 * ratio(t[i].self_s, pass_s), t[i].edges, t[i].cycles);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (args.workload == k.name) w = &k;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Episode seeds come from one stream keyed by --seed; the episode
  // count depends only on --seconds, never on host speed.
  const auto k = static_cast<std::size_t>(std::max(
      1L, std::lround(w->episodes * args.seconds / kReferenceSeconds)));
  vapres::sim::SplitMix64 seeds(args.seed);
  std::vector<Plan> plans;
  for (std::size_t i = 0; i < k; ++i) plans.push_back(w->plan(seeds.next()));

  std::printf("perfbench: workload %s, seed %" PRIu64
              ", %zu episodes x %d repeats%s\n",
              w->name, args.seed, k, w->repeats,
              args.trace ? ", then a fault storm and a traced pass" : "");
  std::printf("  model calibrated to the paper's two reconfiguration times "
              "(1.043 s, 71.94 ms); no held-out reference exists, so it is "
              "unvalidated and no error figure is given\n");

  // Set-up time: the median of every repeat's own set-up and of
  // stand-alone set-ups timed after each episode.
  Tracer off(false);
  const Pass pass = run_pass(plans, off, w->repeats, 4);
  const double setup_s = percentile(pass.setups, 0.5);
  for (std::size_t i = 0; i < k; ++i) {
    std::printf("  episode %zu: %" PRIu64 " lifetimes, %" PRIu64
                " edges, digest %016" PRIx64 ", repeats host s",
                i, pass.episodes[i].lifetimes,
                pass.episodes[i].edges_delivered, pass.episodes[i].digest);
    for (const double t : pass.repeat_s[i]) std::printf(" %.4f", t);
    std::printf(", chunk minima %.4f\n", pass.episodes[i].run_s);
  }

  std::uint64_t attempted =
      pass.sum([](const EpisodeStats& e) { return e.operations(); }) +
      pass.repeats_run;
  std::uint64_t failed =
      pass.sum([](const EpisodeStats& e) { return e.failures(); }) +
      pass.repeat_mismatches;
  std::vector<std::string> problems;
  auto note_problems = [&problems](const Pass& p, const char* which) {
    for (const EpisodeStats& e : p.episodes) {
      for (const std::string& v : e.violations) {
        problems.push_back(std::string(which) + ": " + v);
      }
      if (e.non_terminal > 0) {
        problems.push_back(std::string(which) + ": " +
                           std::to_string(e.non_terminal) +
                           " lifetimes not terminal");
      }
      if (e.migrations_lost > 0) {
        problems.push_back(std::string(which) + ": " +
                           std::to_string(e.migrations_lost) +
                           " migrations lost");
      }
    }
    if (p.repeat_mismatches > 0) {
      problems.push_back(std::string(which) +
                         ": a repeated episode changed its digest");
    }
  };
  note_problems(pass, "untraced pass");

  // Checkpointing must not change the outcome: the first episode run
  // without checkpoints has the same digest.
  if (const auto* s = std::get_if<SingleConfig>(&plans.front());
      s != nullptr && s->checkpoint_every_submission) {
    SingleConfig plain = *s;
    plain.checkpoint_every_submission = false;
    const EpisodeStats ref = run_single(plain, off);
    ++attempted;
    if (ref.digest != pass.episodes.front().digest) {
      ++failed;
      problems.push_back("checkpointed episode digest differs from the "
                         "checkpoint-free run");
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(pass, setup_s);
  } else {
    // A fault storm first, so the traced pass also shows that the
    // outcome does not depend on what ran before it in the process.
    const EpisodeStats storm = run_plan(storm_plan(args.seed), off);
    attempted += storm.operations();
    failed += storm.failures();
    Pass storm_pass;
    storm_pass.episodes.push_back(storm);
    note_problems(storm_pass, "fault storm");
    Tracer traced(true);
    const Pass tp = run_pass(plans, traced, 1);
    note_problems(tp, "traced pass");
    attempted += tp.sum([](const EpisodeStats& e) { return e.operations(); });
    failed += tp.sum([](const EpisodeStats& e) { return e.failures(); });
    for (std::size_t i = 0; i < k; ++i) {
      ++attempted;
      if (tp.episodes[i].digest != pass.episodes[i].digest) {
        ++failed;
        problems.push_back("episode " + std::to_string(i) +
                           ": traced digest differs from untraced");
      }
    }
    // The traced pass runs each episode once, so it is compared with the
    // median, not the fastest, of the untraced repeats.
    double untraced_s = 0.0;
    for (const std::vector<double>& t : pass.repeat_s) {
      untraced_s += percentile(t, 0.5);
    }
    const double overhead = ratio(tp.run_s, untraced_s) - 1.0;
    metrics = per_layer(tp, traced, storm, overhead);
    std::printf("  fault storm: %.4f s host, %" PRIu64 " edges, %" PRIu64
                " of %" PRIu64 " ICAP opportunities faulted\n",
                storm.run_s, storm.edges_delivered, storm.faults_injected,
                storm.fault_opportunities);
    std::printf("  self time per layer, traced pass %.4f s "
                "(trace.overhead_ratio %.4f):\n",
                tp.run_s, overhead);
    print_self_time(traced, tp.run_s);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      traced.write_chrome(out, std::string("perfbench ") + w->name);
      std::printf("  %zu spans written to %s\n", traced.spans().size(),
                  args.trace_out.c_str());
    }
  }

  const std::vector<std::uint64_t> lat = pass.latencies();
  std::printf("  outcome digest %016" PRIx64 " (%" PRIu64
              " lifetimes, %zu admitted, %" PRIu64 " invariant checks)\n",
              pass.digest,
              pass.sum([](const EpisodeStats& e) { return e.lifetimes; }),
              lat.size(),
              pass.sum([](const EpisodeStats& e) {
                return e.invariant_checks;
              }));
  std::printf("  submit->launch p50 %" PRIu64 " mb_cycles over %zu samples%s\n",
              percentile(lat, 0.50), lat.size(),
              lat.size() < 1000
                  ? " (under 1000: the p99 is near the maximum, not a "
                    "resolved tail)"
                  : "");
  std::printf("  failed_ratio %.6g (%" PRIu64 " of %" PRIu64
              " operations)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);
  for (std::size_t i = 0; i < problems.size() && i < 20; ++i) {
    std::printf("  FAILED: %s\n", problems[i].c_str());
  }
  print_metrics(metrics);
  std::printf("%s\n",
              result_json(failed == 0, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <soak|stream|fleet|checkpoint> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    perfbench::reset_process_globals();
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
