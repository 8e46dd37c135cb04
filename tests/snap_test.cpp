// Checkpoint/restore subsystem (snap/): byte-determinism of cold
// restore, warm-restart reconciliation against a live fabric, resume/
// rollback of an in-flight 9-step module switch from every journaled
// step, and corrupt-blob rejection (ctest label: snap).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "comm/fifo.hpp"
#include "core/stats.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"
#include "hwmodule/composite.hpp"
#include "load/soak.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"
#include "snap/format.hpp"
#include "snap/system_snapshot.hpp"

namespace vapres::snap {
namespace {

using comm::Word;

/// The scheduler test floorplan: four PRRs, three IOMs, three lanes.
core::SystemParams quad_params() {
  core::SystemParams p;
  p.name = "snapsys";
  core::RsbParams& r = p.rsbs[0];
  r.num_prrs = 4;
  r.num_ioms = 3;
  r.ki = 1;
  r.ko = 1;
  r.kr = 3;
  r.kl = 3;
  p.prr_rects = {fabric::ClbRect{0, 0, 16, 10},
                 fabric::ClbRect{16, 0, 16, 4},
                 fabric::ClbRect{32, 0, 16, 10},
                 fabric::ClbRect{48, 0, 16, 4}};
  return p;
}

sched::AppRequest make_app(const std::string& name,
                           std::vector<std::string> modules,
                           int interval = 4, std::uint64_t words = 0) {
  sched::AppRequest req;
  req.name = name;
  req.modules = std::move(modules);
  req.priority = 1;
  req.source_interval_cycles = interval;
  req.source_words = words;
  return req;
}

/// Drives the system to the cold-snapshot barrier: no reconfiguration,
/// staging, or prefetch in flight (the same barrier load/soak.cpp uses).
void quiesce(core::VapresSystem& sys) {
  sys.drain_transfer_path();
  while (sys.prefetch().pending() > 0 || sys.prefetch().staging()) {
    sys.run_system_cycles(64);
  }
}

/// Puts the process-wide fault injector into one fixed, disabled state so
/// the blob's "fault" section does not depend on earlier tests.
void reset_fault_injector() { sim::ScopedFaultInjection reset(0); }

/// FNV-1a of a whole blob (golden pins).
std::uint64_t blob_digest(const std::string& blob) {
  return fnv1a(blob.data(), blob.size());
}

/// The standard library plus "fused_ma": ma4 then gain_x2 fused into one
/// composite module, whose snapshot_extra frames ma4's sample counter.
hwmodule::ModuleLibrary composite_library() {
  hwmodule::ModuleLibrary lib = hwmodule::ModuleLibrary::standard();
  lib.register_module(
      {"fused_ma", "ma4 then gain_x2, fused", fabric::ResourceVector{300, 0, 0},
       1, 1, [base = hwmodule::ModuleLibrary::standard()] {
         std::vector<std::unique_ptr<hwmodule::ModuleBehavior>> stages;
         stages.push_back(base.instantiate("ma4"));
         stages.push_back(base.instantiate("gain_x2"));
         return std::make_unique<hwmodule::CompositeBehavior>(
             "fused_ma", std::move(stages));
       }});
  return lib;
}

/// First byte offset where two blobs differ (for failure diagnostics).
std::string first_difference(const std::string& a, const std::string& b) {
  if (a == b) return "identical";
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return "sizes " + std::to_string(a.size()) + "/" + std::to_string(b.size()) +
         ", first difference at byte " + std::to_string(i);
}

TEST(Snap, EpochAndSectionProbes) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 42);
  EXPECT_EQ(SystemSnapshot::epoch(blob), 42u);
  EXPECT_FALSE(SystemSnapshot::has_scheduler(blob));
  EXPECT_FALSE(SystemSnapshot::has_switch(blob));

  sched::ApplicationScheduler sched(sys);
  const std::string blob2 = SystemSnapshot::save(sys, 43, &sched);
  EXPECT_EQ(SystemSnapshot::epoch(blob2), 43u);
  EXPECT_TRUE(SystemSnapshot::has_scheduler(blob2));
  EXPECT_FALSE(SystemSnapshot::has_switch(blob2));
}

TEST(Snap, RejectsCorruptAndTruncatedBlobs) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 1);

  // Flip one byte in the middle of the payload: a section digest must
  // catch it.
  std::string corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_THROW(SnapshotReader{corrupt}, ModelError);

  // Truncation at any of several points must be rejected, not read past.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, blob.size() / 4, blob.size() - 1}) {
    EXPECT_THROW(SnapshotReader{blob.substr(0, keep)}, ModelError)
        << "truncated to " << keep << " bytes";
  }

  // Wrong magic.
  std::string magic = blob;
  magic[0] ^= 0xFF;
  EXPECT_THROW(SnapshotReader{magic}, ModelError);
}

// section_digests runs kDigestLanes FNV-1a chains in lockstep; every value
// must still be the plain FNV-1a of its own payload.
TEST(Snap, SectionDigestsEqualPerSectionFnv) {
  const auto bytes = [](std::size_t n, unsigned seed) {
    std::string s(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = static_cast<char>(seed * 131u + i * 7u + (i >> 8));
    }
    return s;
  };
  const auto expect_fnv = [](const std::vector<std::string>& payloads) {
    const std::vector<std::string_view> views(payloads.begin(),
                                              payloads.end());
    const std::vector<std::uint64_t> got = section_digests(views);
    ASSERT_EQ(got.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(got[i], fnv1a(payloads[i].data(), payloads[i].size()))
          << "payload " << i << " of " << payloads.size();
    }
  };
  expect_fnv({});
  expect_fnv({""});
  expect_fnv({bytes(97, 1)});
  expect_fnv({"", bytes(3, 2), "", bytes(5, 3), ""});
  // More sections than lanes, none of a size that is a multiple of the
  // lane count.
  std::vector<std::string> many;
  for (unsigned k = 0; k < 3 * kDigestLanes + 1; ++k) {
    many.push_back(bytes(4 * k + 1 + k % 3, k));
  }
  expect_fnv(many);
  // One section far longer than the rest, placed first, in the middle and
  // last.
  const std::string big = bytes(100003, 9);
  expect_fnv({big, bytes(7, 1), bytes(1, 2), bytes(13, 3), bytes(2, 4)});
  expect_fnv({bytes(7, 1), bytes(1, 2), big, bytes(13, 3), "", bytes(2, 4)});
  expect_fnv({bytes(7, 1), bytes(1, 2), bytes(13, 3), bytes(2, 4), big});
}

// Vectors and arrays of uint32_t/uint64_t travel as one memcpy, with the
// same bytes as their element-by-element form, and decode back exactly.
TEST(Snap, BulkArraysRoundTrip) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1000}}) {
    SCOPED_TRACE(n);
    std::vector<std::uint32_t> v32(n);
    std::vector<std::uint64_t> v64(n);
    for (std::size_t i = 0; i < n; ++i) {
      v32[i] = static_cast<std::uint32_t>(0x9e3779b9u * (i + 1));
      v64[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
    }
    std::array<std::uint32_t, 3> a32{1, 0xfffffffeu, 0x80000000u};
    std::array<std::uint64_t, 65> a64{};
    for (std::size_t i = 0; i < a64.size(); ++i) a64[i] = ~std::uint64_t{i};

    SnapshotWriter w(1);
    w.section("bulk", [&] { w(v32, v64, a32, a64); });
    const std::string blob = w.finish();

    SnapshotWriter e(1);
    e.section("bulk", [&] {
      e.u32(static_cast<std::uint32_t>(n));
      for (const std::uint32_t x : v32) e.u32(x);
      e.u32(static_cast<std::uint32_t>(n));
      for (const std::uint64_t x : v64) e.u64(x);
      for (const std::uint32_t x : a32) e.u32(x);
      for (const std::uint64_t x : a64) e.u64(x);
    });
    EXPECT_EQ(blob, e.finish());

    SnapshotReader r(blob);
    std::vector<std::uint32_t> b32{7, 7};
    std::vector<std::uint64_t> b64{7};
    std::array<std::uint32_t, 3> c32{};
    std::array<std::uint64_t, 65> c64{};
    r.section("bulk", [&] { r(b32, b64, c32, c64); });
    EXPECT_EQ(b32, v32);
    EXPECT_EQ(b64, v64);
    EXPECT_EQ(c32, a32);
    EXPECT_EQ(c64, a64);
  }
}

// A FIFO section holding more words than the restoring FIFO's capacity,
// or a high watermark above it, is rejected rather than overlaid into a
// FIFO with negative room.
TEST(Snap, FifoRestoreRejectsContentsAboveCapacity) {
  const auto section_of = [](comm::Fifo& f) {
    SnapshotWriter w(1);
    w.section("fifo", [&] { w(f); });
    return SnapshotReader(w.finish());
  };
  comm::Fifo full("full", 8);
  for (Word x = 0; x < 8; ++x) full.push(x);
  SnapshotReader r = section_of(full);
  comm::Fifo small("small", 4);
  EXPECT_THROW(r.section("fifo", [&] { r(small); }), ModelError);
  comm::Fifo same("same", 8);
  r.section("fifo", [&] { r(same); });
  EXPECT_EQ(same.size(), 8);
  EXPECT_EQ(same.remaining(), 0);

  // Two words held, but six at the peak.
  comm::Fifo drained("drained", 8);
  for (Word x = 0; x < 6; ++x) drained.push(x);
  for (int i = 0; i < 4; ++i) drained.pop();
  SnapshotReader peak = section_of(drained);
  comm::Fifo small2("small2", 4);
  EXPECT_THROW(peak.section("fifo", [&] { peak(small2); }), ModelError);
}

TEST(Snap, ColdRestoreVerifiesParams) {
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 1);

  core::SystemParams wrong = quad_params();
  wrong.name = "otherbox";
  EXPECT_THROW(SystemSnapshot::restore_system(blob, wrong), ModelError);

  wrong = quad_params();
  wrong.rsbs[0].fifo_depth += 1;
  EXPECT_THROW(SystemSnapshot::restore_system(blob, wrong), ModelError);
}

// The tentpole determinism gate: checkpoint mid-stream, restore into a
// fresh system, run both the original and the restored system the same
// number of cycles — the two final snapshots must be byte-identical.
TEST(Snap, ColdRestoreIsByteDeterministic) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);

  // One still-streaming finite app, one already-exhausted one, one
  // unbounded one — the generator re-install has to handle all three.
  const int a = sched.submit(make_app("finite", {"gain_x2"}, 4, 5000));
  const int b = sched.submit(make_app("done", {"passthrough"}, 4, 32));
  const int c = sched.submit(make_app("endless", {"gain_half"}, 8, 0));
  sched.run_admission();
  ASSERT_TRUE(sched.app(a).running());
  ASSERT_TRUE(sched.app(b).running());
  ASSERT_TRUE(sched.app(c).running());
  sys.run_system_cycles(2000);  // "done" has emitted all 32 words by now
  quiesce(sys);

  const std::string blob0 = SystemSnapshot::save(sys, 7, &sched);

  // Uninterrupted continuation.
  sys.run_system_cycles(5000);
  const std::string blob1 = SystemSnapshot::save(sys, 8, &sched);

  // Restore-then-run continuation.
  auto sys2 = SystemSnapshot::restore_system(blob0, quad_params());
  auto sched2 = SystemSnapshot::restore_scheduler(blob0, *sys2);
  sys2->run_system_cycles(5000);
  const std::string blob1r = SystemSnapshot::save(*sys2, 8, sched2.get());

  EXPECT_TRUE(blob1 == blob1r) << first_difference(blob1, blob1r);

  // The restored run's streams behaved identically in detail too.
  EXPECT_EQ(sched.app(a).running(), sched2->app(a).running());
  EXPECT_EQ(sched.received_words(c), sched2->received_words(c));
}

// Restoring twice from the same blob yields byte-identical snapshots
// immediately (no hidden dependence on pre-restore process state).
TEST(Snap, RestoreIsReproducible) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  sched.submit(make_app("app", {"gain_x2"}, 4, 1000));
  sched.run_admission();
  sys.run_system_cycles(500);
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 3, &sched);

  auto r1 = SystemSnapshot::restore_system(blob, quad_params());
  auto s1 = SystemSnapshot::restore_scheduler(blob, *r1);
  const std::string again1 = SystemSnapshot::save(*r1, 3, s1.get());

  auto r2 = SystemSnapshot::restore_system(blob, quad_params());
  auto s2 = SystemSnapshot::restore_scheduler(blob, *r2);
  const std::string again2 = SystemSnapshot::save(*r2, 3, s2.get());

  EXPECT_TRUE(blob == again1) << first_difference(blob, again1);
  EXPECT_TRUE(again1 == again2) << first_difference(again1, again2);
}

// SystemStats counters and obs::Registry metrics must round-trip the
// snapshot (kernel edge-delivery accounting is excluded by design: the
// restore wakes every component once).
TEST(Snap, StatsAndMetricsRoundTrip) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  sched.submit(make_app("app", {"ma8", "gain_x2"}, 4, 2000));
  sched.run_admission();
  sys.run_system_cycles(3000);
  quiesce(sys);

  obs::Registry::instance().counter("test.extra.counter").add(17);
  obs::Registry::instance().gauge("test.extra.gauge").set(-4);
  obs::Registry::instance().histogram("test.extra.hist").record(123);
  obs::Registry::instance().histogram("test.extra.hist").record(99999);

  const std::string blob = SystemSnapshot::save(sys, 1, &sched);
  const core::SystemStats before = core::collect_stats(sys);
  const obs::MetricsSnapshot ms_before = obs::Registry::instance().snapshot();

  // Post-save drift the restore must erase.
  obs::Registry::instance().counter("test.extra.counter").add(1000);
  obs::Registry::instance().histogram("test.extra.hist").record(1);

  auto sys2 = SystemSnapshot::restore_system(blob, quad_params());
  const core::SystemStats after = core::collect_stats(*sys2);
  const obs::MetricsSnapshot ms_after = obs::Registry::instance().snapshot();

  // Registry: every nonzero metric identical, histograms to the raw
  // bucket (count/sum/min/max/percentiles all derive from them).
  std::map<std::string, std::uint64_t> counters_before, counters_after;
  for (const auto& [n, v] : ms_before.counters) {
    if (v != 0) counters_before[n] = v;
  }
  for (const auto& [n, v] : ms_after.counters) {
    if (v != 0) counters_after[n] = v;
  }
  EXPECT_EQ(counters_before, counters_after);
  for (const auto& h : ms_before.histograms) {
    if (h.count == 0) continue;
    SCOPED_TRACE(h.name);
    const obs::Histogram& restored =
        obs::Registry::instance().histogram(h.name);
    EXPECT_EQ(restored.count(), h.count);
    EXPECT_EQ(restored.sum(), h.sum);
    EXPECT_EQ(restored.min(), h.min);
    EXPECT_EQ(restored.max(), h.max);
    EXPECT_EQ(restored.percentile(0.50), h.p50);
    EXPECT_EQ(restored.percentile(0.99), h.p99);
  }

  // SystemStats: every counter the report prints, minus kernel activity.
  ASSERT_EQ(before.sites.size(), after.sites.size());
  for (std::size_t i = 0; i < before.sites.size(); ++i) {
    SCOPED_TRACE(before.sites[i].name);
    EXPECT_EQ(before.sites[i].loaded_module, after.sites[i].loaded_module);
    EXPECT_EQ(before.sites[i].reconfigurations,
              after.sites[i].reconfigurations);
    EXPECT_EQ(before.sites[i].words_in, after.sites[i].words_in);
    EXPECT_EQ(before.sites[i].words_out, after.sites[i].words_out);
    EXPECT_EQ(before.sites[i].words_discarded,
              after.sites[i].words_discarded);
    EXPECT_EQ(before.sites[i].stall_cycles, after.sites[i].stall_cycles);
  }
  ASSERT_EQ(before.fifos.size(), after.fifos.size());
  for (std::size_t i = 0; i < before.fifos.size(); ++i) {
    SCOPED_TRACE(before.fifos[i].name);
    EXPECT_EQ(before.fifos[i].pushed, after.fifos[i].pushed);
    EXPECT_EQ(before.fifos[i].popped, after.fifos[i].popped);
    EXPECT_EQ(before.fifos[i].high_watermark, after.fifos[i].high_watermark);
    EXPECT_EQ(before.fifos[i].fault_dropped, after.fifos[i].fault_dropped);
    EXPECT_EQ(before.fifos[i].fault_duplicated,
              after.fifos[i].fault_duplicated);
  }
  ASSERT_EQ(before.domains.size(), after.domains.size());
  for (std::size_t i = 0; i < before.domains.size(); ++i) {
    SCOPED_TRACE(before.domains[i].name);
    EXPECT_EQ(before.domains[i].frequency_mhz, after.domains[i].frequency_mhz);
    EXPECT_EQ(before.domains[i].cycles, after.domains[i].cycles);
  }
  EXPECT_EQ(before.active_channels, after.active_channels);
  EXPECT_EQ(before.dcr_accesses, after.dcr_accesses);
  EXPECT_EQ(before.mb_busy_cycles, after.mb_busy_cycles);
  EXPECT_EQ(before.system_cycles, after.system_cycles);
  EXPECT_EQ(before.icap_bytes, after.icap_bytes);
  EXPECT_EQ(before.reconfigurations, after.reconfigurations);
  EXPECT_EQ(before.robustness.faults_injected,
            after.robustness.faults_injected);
  EXPECT_EQ(before.robustness.icap_corrupted, after.robustness.icap_corrupted);
  EXPECT_EQ(before.robustness.icap_timeouts, after.robustness.icap_timeouts);
  EXPECT_EQ(before.robustness.reconfig_retries,
            after.robustness.reconfig_retries);
  EXPECT_EQ(before.robustness.source_fallbacks,
            after.robustness.source_fallbacks);
  EXPECT_EQ(before.robustness.reconfig_failures,
            after.robustness.reconfig_failures);
  EXPECT_EQ(before.robustness.switch_rollbacks,
            after.robustness.switch_rollbacks);
  EXPECT_EQ(before.robustness.fifo_words_dropped,
            after.robustness.fifo_words_dropped);
  EXPECT_EQ(before.robustness.fifo_words_duplicated,
            after.robustness.fifo_words_duplicated);
  EXPECT_EQ(before.robustness.stuck_ports, after.robustness.stuck_ports);
  EXPECT_EQ(before.bitcache.hits, after.bitcache.hits);
  EXPECT_EQ(before.bitcache.misses, after.bitcache.misses);
  EXPECT_EQ(before.bitcache.evictions, after.bitcache.evictions);
  EXPECT_EQ(before.bitcache.prefetch_issued, after.bitcache.prefetch_issued);
  EXPECT_EQ(before.bitcache.prefetch_useful, after.bitcache.prefetch_useful);
}

// A switch-box output that goes stuck mid-stream freezes its flit while
// the rest of the route keeps moving. The snapshot must carry the latch
// and the frozen value (the blob layout is pinned: its digest was
// recorded before the fabric kept its registers in flat arrays), the
// restored run must reach the uninterrupted run's bytes, and a repair
// after restore must act on the restored fabric exactly as on the
// original.
TEST(Snap, StuckOutputMidStreamRoundTrip) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  const int app = sched.submit(make_app("stream", {"gain_x2"}, 2, 0));
  sched.run_admission();
  ASSERT_TRUE(sched.app(app).running());
  sys.run_system_cycles(1500);
  quiesce(sys);

  // The first routed inter-box lane output carrying a valid flit.
  comm::SwitchFabric& fab = sys.rsb().fabric();
  const comm::SwitchBoxShape& sh = fab.shape();
  int stuck_box = -1;
  int stuck_port = -1;
  for (int b = 0; b < fab.num_boxes() && stuck_box < 0; ++b) {
    for (int p = 0; p < sh.kr + sh.kl; ++p) {
      if (fab.box(b).selected(p) >= 0 &&
          fab.box(b).output_signal(p)->valid) {
        stuck_box = b;
        stuck_port = p;
        break;
      }
    }
  }
  ASSERT_GE(stuck_box, 0) << "no live lane carries a flit";
  {
    // Stick exactly that output on the next edge: opportunities are drawn
    // box by box, port by port, so its flat index is its opportunity.
    sim::ScopedFaultInjection faults(99);
    faults->arm(sim::FaultSite::kSwitchBoxStuckPort,
                static_cast<std::uint64_t>(stuck_box * sh.num_outputs() +
                                           stuck_port));
    sys.run_system_cycles(1);
  }
  ASSERT_TRUE(fab.box(stuck_box).output_stuck(stuck_port));
  sys.run_system_cycles(700);  // mid-stream, port still stuck
  quiesce(sys);
  const std::string blob0 = SystemSnapshot::save(sys, 5, &sched);
  EXPECT_EQ(fnv1a(blob0.data(), blob0.size()), 0x4d64fb561b2d7793ULL)
      << std::hex << fnv1a(blob0.data(), blob0.size());

  auto sys2 = SystemSnapshot::restore_system(blob0, quad_params());
  auto sched2 = SystemSnapshot::restore_scheduler(blob0, *sys2);
  comm::SwitchFabric& fab2 = sys2->rsb().fabric();
  EXPECT_TRUE(fab2.box(stuck_box).output_stuck(stuck_port));
  EXPECT_EQ(*fab2.box(stuck_box).output_signal(stuck_port),
            *fab.box(stuck_box).output_signal(stuck_port));

  // Uninterrupted and restored runs, stuck, then repaired.
  sys.run_system_cycles(2000);
  sys2->run_system_cycles(2000);
  const std::string stuck_a = SystemSnapshot::save(sys, 6, &sched);
  const std::string stuck_b = SystemSnapshot::save(*sys2, 6, sched2.get());
  EXPECT_TRUE(stuck_a == stuck_b) << first_difference(stuck_a, stuck_b);

  fab.box(stuck_box).repair_output(stuck_port);
  fab2.box(stuck_box).repair_output(stuck_port);
  sys.run_system_cycles(2000);
  sys2->run_system_cycles(2000);
  const std::string repaired_a = SystemSnapshot::save(sys, 7, &sched);
  const std::string repaired_b = SystemSnapshot::save(*sys2, 7, sched2.get());
  EXPECT_TRUE(repaired_a == repaired_b)
      << first_difference(repaired_a, repaired_b);
  EXPECT_FALSE(stuck_a == repaired_a);
  EXPECT_EQ(sched.received_words(app), sched2->received_words(app));
}

// Golden cold blob: a PRR holding a composite module mid-stream (its
// snapshot_extra is non-empty), bitman predictor tables that learned a
// module sequence, and an armed fault site. The digest was recorded
// before the snapshot schema was written as one two-way visit per class;
// a restore must reproduce the same bytes.
TEST(Snap, GoldenColdCompositeBlob) {
  obs::Registry::instance().reset();
  reset_fault_injector();
  core::VapresSystem sys(quad_params(), composite_library());
  sys.bring_up_all_sites();
  // Managed loads go through the bitstream cache, which feeds the
  // per-PRR next-module predictor; preloaded arrays keep them warm hits.
  sys.preload_sdram("passthrough", 0, 0);
  sys.preload_sdram("fused_ma", 0, 0);
  sys.reconfigure_now(0, 0, "passthrough", core::ReconfigSource::kManaged);
  sys.reconfigure_now(0, 0, "fused_ma", core::ReconfigSource::kManaged);
  const std::string prr = sys.rsb().prr(0).name();
  ASSERT_EQ(sys.bitman().predicted_next(prr, "passthrough"), "fused_ma");

  // Stream a finite burst through the composite; the source generator is
  // exhausted (and dropped) before the checkpoint.
  core::Rsb& rsb = sys.rsb();
  ASSERT_TRUE(sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0)));
  ASSERT_TRUE(sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0)));
  std::vector<Word> burst(96);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    burst[i] = static_cast<Word>(3 * i + 1);
  }
  rsb.iom(0).set_source_data(burst, 2);
  sys.run_system_cycles(2000);
  ASSERT_FALSE(rsb.iom(0).source_active());
  ASSERT_GT(rsb.iom(0).words_received(), 0u);
  quiesce(sys);
  sched::ApplicationScheduler sched(sys);

  std::string blob;
  {
    sim::ScopedFaultInjection faults(7);
    faults->arm(sim::FaultSite::kSwitchBoxStuckPort, 1'000'000'000, 2);
    blob = SystemSnapshot::save(sys, 11, &sched);
  }
  EXPECT_EQ(blob_digest(blob), 0x33973e37e83de636ULL)
      << std::hex << blob_digest(blob);

  auto sys2 = SystemSnapshot::restore_system(blob, quad_params(),
                                             composite_library());
  auto sched2 = SystemSnapshot::restore_scheduler(blob, *sys2);
  const std::string again = SystemSnapshot::save(*sys2, 11, sched2.get());
  EXPECT_TRUE(blob == again) << first_difference(blob, again);
  reset_fault_injector();
}

// ---- warm restart ---------------------------------------------------------

TEST(Snap, WarmRestartAdoptsLiveAppsWithZeroStreamGaps) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  const int a = sched.submit(make_app("left", {"gain_x2"}, 4, 0));
  const int b = sched.submit(make_app("right", {"gain_half"}, 4, 0));
  sched.run_admission();
  ASSERT_TRUE(sched.app(a).running());
  ASSERT_TRUE(sched.app(b).running());
  sys.run_system_cycles(1000);
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 5, &sched);

  // Controller crash: the fabric (sys) lives on; the scheduler object is
  // abandoned. Reset the gap window, reconcile a fresh controller, keep
  // streaming — the output stream must never see a reset.
  core::Rsb& rsb = sys.rsb(0);
  rsb.iom(sched.app(a).sink.iom).reset_gap_stats(sched.app(a).sink.channel);
  rsb.iom(sched.app(b).sink.iom).reset_gap_stats(sched.app(b).sink.channel);

  WarmRestart wr = SystemSnapshot::warm_restart(blob, sys);
  ASSERT_NE(wr.scheduler, nullptr);
  EXPECT_EQ(wr.report.adopted_apps, 2);
  EXPECT_EQ(wr.report.mismatches, 0);
  EXPECT_FALSE(wr.report.switch_resumed);
  EXPECT_FALSE(wr.report.switch_rolled_back);

  const std::uint64_t words_before =
      wr.scheduler->app(a).running()
          ? rsb.iom(wr.scheduler->app(a).sink.iom)
                .words_received(wr.scheduler->app(a).sink.channel)
          : 0;
  sys.run_system_cycles(2000);

  // Both apps still run under the new controller and their sinks kept
  // receiving at the source rate (gap stays at the interval, no reset).
  EXPECT_TRUE(wr.scheduler->app(a).running());
  EXPECT_TRUE(wr.scheduler->app(b).running());
  const sched::AppRecord& ra = wr.scheduler->app(a);
  EXPECT_GT(rsb.iom(ra.sink.iom).words_received(ra.sink.channel), words_before);
  EXPECT_LE(rsb.iom(ra.sink.iom).max_output_gap(ra.sink.channel), 64u);
  const sched::AppRecord& rb = wr.scheduler->app(b);
  EXPECT_LE(rsb.iom(rb.sink.iom).max_output_gap(rb.sink.channel), 64u);

  // The adopted controller passes the same ledger checks a fresh one
  // would.
  EXPECT_EQ(wr.scheduler->running_apps().size(), 2u);
}

TEST(Snap, WarmRestartDowngradesMismatchedApps) {
  obs::Registry::instance().reset();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  const int a = sched.submit(make_app("keeper", {"gain_x2"}, 4, 0));
  const int b = sched.submit(make_app("goner", {"gain_half"}, 4, 0));
  sched.run_admission();
  ASSERT_TRUE(sched.app(a).running() && sched.app(b).running());
  sys.run_system_cycles(500);
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 6, &sched);

  // Between checkpoint and crash the fabric moved on: "goner" was torn
  // down, so the journal no longer matches the fabric for it.
  sched.stop(b);

  WarmRestart wr = SystemSnapshot::warm_restart(blob, sys);
  EXPECT_EQ(wr.report.adopted_apps, 1);
  EXPECT_EQ(wr.report.mismatches, 1);
  EXPECT_TRUE(wr.scheduler->app(a).running());
  EXPECT_FALSE(wr.scheduler->app(b).running());
  // The keeper's stream is untouched.
  sys.run_system_cycles(500);
  EXPECT_TRUE(wr.scheduler->app(a).running());
}

// ---- in-flight switch resume/rollback sweep -------------------------------

struct SwitchRig {
  std::unique_ptr<core::VapresSystem> sys;
  std::unique_ptr<sched::ApplicationScheduler> sched;
  core::ChannelId upstream = 0;
  core::ChannelId downstream = 0;

  SwitchRig() {
    core::SystemParams p = core::SystemParams::prototype();
    p.rsbs[0].prr_width_clbs = 4;  // small PRR: fast reconfiguration
    sys = std::make_unique<core::VapresSystem>(std::move(p));
    sys->bring_up_all_sites();
    sys->reconfigure_now(0, 0, "passthrough");
    sys->preload_sdram("gain_x2", 0, 1);
    sched = std::make_unique<sched::ApplicationScheduler>(*sys);
    core::Rsb& rsb = sys->rsb();
    upstream = *sys->connect(0, rsb.iom_producer(0), rsb.prr_consumer(0));
    downstream = *sys->connect(0, rsb.prr_producer(0), rsb.iom_consumer(0));
    rsb.iom(0).set_source_generator(
        [n = Word{0}]() mutable -> std::optional<Word> {
          return static_cast<Word>((n++) & 0x7FFFFFFFu);
        },
        /*interval=*/4);
  }

  core::SwitchRequest request() const {
    core::SwitchRequest req;
    req.src_prr = 0;
    req.dst_prr = 1;
    req.new_module_id = "gain_x2";
    req.upstream = upstream;
    req.downstream = downstream;
    req.eos_iom = 0;
    req.source = core::ReconfigSource::kSdramArray;
    return req;
  }

  /// Advances until the switcher first shows `target` (coarse chunks
  /// through the long PR step, single cycles through the fast protocol
  /// tail so no step is skipped over).
  bool run_to_state(core::ModuleSwitcher& sw,
                    core::ModuleSwitcher::State target) {
    using St = core::ModuleSwitcher::State;
    for (std::uint64_t budget = 0; budget < 80'000'000; ++budget) {
      if (sw.state() == target) return true;
      if (sw.finished()) return false;
      // Chunking through kReconfiguring would overshoot: the whole
      // protocol tail (steps 2..9) can complete inside one chunk. Only
      // kIdle is safe to cross coarsely.
      const std::uint64_t chunk = sw.state() == St::kIdle ? 1024 : 1;
      sys->run_system_cycles(chunk);
    }
    return false;
  }
};

TEST(Snap, WarmRestartRollsBackSwitchInterruptedDuringReconfig) {
  obs::Registry::instance().reset();
  SwitchRig rig;
  core::ModuleSwitcher sw(*rig.sys, rig.request());
  sw.begin();
  ASSERT_TRUE(
      rig.run_to_state(sw, core::ModuleSwitcher::State::kReconfiguring));

  const std::string blob =
      SystemSnapshot::save(*rig.sys, 9, rig.sched.get(), &sw);
  EXPECT_TRUE(SystemSnapshot::has_switch(blob));
  // A warm blob must be refused by the cold path.
  EXPECT_THROW(SystemSnapshot::restore_system(
                   blob, core::SystemParams::prototype()),
               ModelError);

  // Crash: the controller (and its switcher task) is gone.
  rig.sys->mb().remove_task(&sw);
  WarmRestart wr = SystemSnapshot::warm_restart(blob, *rig.sys);
  EXPECT_TRUE(wr.report.switch_rolled_back);
  EXPECT_FALSE(wr.report.switch_resumed);
  EXPECT_EQ(wr.switcher, nullptr);

  core::Rsb& rsb = rig.sys->rsb();
  // The spare PRR is not left stuck half-configured.
  EXPECT_FALSE(rsb.prr(1).occupied());
  EXPECT_EQ(rsb.prr(1).loaded_module(), "");
  // The original stream never moved and keeps flowing.
  EXPECT_TRUE(rsb.channels().active(rig.upstream));
  EXPECT_TRUE(rsb.channels().active(rig.downstream));
  const std::uint64_t before = rsb.iom(0).words_received(0);
  rig.sys->run_system_cycles(2000);
  EXPECT_GT(rsb.iom(0).words_received(0), before);
}

class SnapSwitchResume
    : public ::testing::TestWithParam<core::ModuleSwitcher::State> {};

TEST_P(SnapSwitchResume, ResumesFromJournaledStep) {
  obs::Registry::instance().reset();
  SwitchRig rig;
  core::ModuleSwitcher sw(*rig.sys, rig.request());
  sw.begin();
  ASSERT_TRUE(rig.run_to_state(sw, GetParam()))
      << "state " << static_cast<int>(GetParam()) << " never observed";

  const std::string blob =
      SystemSnapshot::save(*rig.sys, 9, rig.sched.get(), &sw);
  rig.sys->mb().remove_task(&sw);  // crash

  WarmRestart wr = SystemSnapshot::warm_restart(blob, *rig.sys);
  EXPECT_TRUE(wr.report.switch_resumed);
  ASSERT_NE(wr.switcher, nullptr);

  // The resumed switcher completes the protocol; the PRR is never left
  // stuck and the stream ends up on the new module.
  ASSERT_TRUE(rig.sys->sim().run_until([&] { return wr.switcher->finished(); },
                                       800'000'000'000ULL));
  EXPECT_TRUE(wr.switcher->done());
  core::Rsb& rsb = rig.sys->rsb();
  EXPECT_EQ(rsb.prr(1).loaded_module(), "gain_x2");
  EXPECT_FALSE(rsb.channels().active(rig.upstream));
  EXPECT_FALSE(rsb.channels().active(rig.downstream));
  // Output continues on the re-routed channel.
  const std::uint64_t before = rsb.iom(0).words_received(0);
  rig.sys->run_system_cycles(2000);
  EXPECT_GT(rsb.iom(0).words_received(0), before);
}

// Golden warm blob: the switch journal of an in-flight 9-step switch one
// step after its partial reconfiguration landed. The digest was recorded
// before the snapshot schema was written as one two-way visit per class.
TEST(Snap, GoldenWarmSwitchBlob) {
  obs::Registry::instance().reset();
  reset_fault_injector();
  SwitchRig rig;
  core::ModuleSwitcher sw(*rig.sys, rig.request());
  sw.begin();
  ASSERT_TRUE(
      rig.run_to_state(sw, core::ModuleSwitcher::State::kRerouteUpstream));
  const std::string blob =
      SystemSnapshot::save(*rig.sys, 9, rig.sched.get(), &sw);
  ASSERT_TRUE(SystemSnapshot::has_switch(blob));
  EXPECT_EQ(blob_digest(blob), 0xc62d6317934f2e6eULL)
      << std::hex << blob_digest(blob);
  rig.sys->mb().remove_task(&sw);
}

// ---- decoder robustness ---------------------------------------------------

/// One section of a blob: where its header starts and its payload lies.
struct SectionSpan {
  std::string name;
  std::size_t header = 0;   ///< offset of the u32 name length
  std::size_t payload = 0;  ///< offset of the first payload byte
  std::size_t size = 0;
};

std::uint64_t load_le(const std::string& b, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(b[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void store_le(std::string& b, std::size_t at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    b[at + static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
  }
}

std::vector<SectionSpan> sections_of(const std::string& blob) {
  std::vector<SectionSpan> out;
  std::size_t at = 16;
  while (at < blob.size()) {
    SectionSpan s;
    s.header = at;
    const auto name_len = static_cast<std::size_t>(load_le(blob, at, 4));
    s.name = blob.substr(at + 4, name_len);
    at += 4 + name_len;
    s.size = static_cast<std::size_t>(load_le(blob, at, 8));
    s.payload = at + 16;
    at = s.payload + s.size;
    out.push_back(s);
  }
  return out;
}

/// Replaces section `s`'s payload and recomputes its length and digest, so
/// the container accepts the result and only the section decoders stand
/// between the bytes and the model.
std::string reseal(const std::string& blob, const SectionSpan& s,
                   const std::string& payload) {
  const std::size_t len_at = s.header + 4 + s.name.size();
  std::string out = blob.substr(0, s.payload) + payload +
                    blob.substr(s.payload + s.size);
  store_le(out, len_at, payload.size(), 8);
  store_le(out, len_at + 8, fnv1a(payload.data(), payload.size()), 8);
  return out;
}

// A bulk count that claims more elements than the section holds bytes
// for, re-sealed so the container accepts it, ends in ModelError before
// anything is allocated. Runs under ASan/UBSan with the rest of the snap
// label.
TEST(Snap, BulkCountBeyondSectionIsRejected) {
  std::vector<std::uint64_t> v64{1, 2};
  std::vector<std::uint32_t> v32{3, 4, 5};
  SnapshotWriter w(1);
  w.section("u64", [&] { w(v64); });
  w.section("u32", [&] { w(v32); });
  const std::string blob = w.finish();
  const std::vector<SectionSpan> spans = sections_of(blob);
  ASSERT_EQ(spans.size(), 2u);
  for (const std::uint32_t claim : {4u, 0x10000000u, 0xffffffffu}) {
    SCOPED_TRACE(claim);
    for (const SectionSpan& s : spans) {
      std::string payload = blob.substr(s.payload, s.size);
      store_le(payload, 0, claim, 4);
      SnapshotReader r(reseal(blob, s, payload));
      std::vector<std::uint64_t> got64;
      std::vector<std::uint32_t> got32;
      if (s.name == "u64") {
        EXPECT_THROW(r.section(s.name, [&] { r(got64); }), ModelError);
      } else {
        EXPECT_THROW(r.section(s.name, [&] { r(got32); }), ModelError);
      }
    }
  }
  // A fixed-size array needs all of its bytes too.
  SnapshotReader r(blob);
  std::array<std::uint64_t, 3> arr{};
  EXPECT_THROW(r.section("u64", [&] { r(arr); }), ModelError);
}

/// Every byte of a section's first 512 (counts, cursors, headers), then
/// an even spread of 64 over the rest.
std::vector<std::size_t> mutation_offsets(std::size_t size) {
  constexpr std::size_t kDense = 512;
  constexpr std::size_t kSparse = 64;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < std::min(size, kDense); ++i) out.push_back(i);
  if (size > kDense) {
    const std::size_t stride = (size - kDense + kSparse - 1) / kSparse;
    for (std::size_t i = kDense; i < size; i += stride) out.push_back(i);
  }
  return out;
}

/// Flips one byte at each chosen offset of every section, reseals, and
/// hands each mutant to `decode`, which must either run clean or throw
/// ModelError — anything else (a crash, a sanitizer report, another
/// exception type) fails the test. Returns how many mutants were tried.
template <class Decode>
int mutate_every_section(const std::string& blob, Decode&& decode) {
  int tried = 0;
  for (const SectionSpan& s : sections_of(blob)) {
    const std::string payload = blob.substr(s.payload, s.size);
    for (const std::size_t i : mutation_offsets(s.size)) {
      std::string bad = payload;
      // Alternate a low-bit flip (counts, flags and indices stay nearly
      // plausible) with a high-bit flip (values far out of range).
      bad[i] = static_cast<char>(bad[i] ^ (i % 2 == 0 ? 0x01 : 0x80));
      const std::string mutant = reseal(blob, s, bad);
      try {
        decode(mutant);
      } catch (const ModelError&) {
      }
      ++tried;
    }
  }
  return tried;
}

/// restore_system -> restore_scheduler -> warm_restart -> 200 cycles.
void decode_cold(const std::string& blob, const core::SystemParams& params) {
  auto sys = SystemSnapshot::restore_system(blob, params);
  auto sched = SystemSnapshot::restore_scheduler(blob, *sys);
  WarmRestart wr = SystemSnapshot::warm_restart(blob, *sys);
  sys->run_system_cycles(200);
}

// A visit must consume its section exactly: one byte appended to any
// section (re-sealed, so the container accepts it) is schema drift the
// decoders reject instead of ignoring.
TEST(Snap, UnreadSectionBytesAreRejected) {
  obs::Registry::instance().reset();
  reset_fault_injector();
  core::VapresSystem sys(quad_params());
  sys.bring_up_all_sites();
  sched::ApplicationScheduler sched(sys);
  sched.submit(make_app("m", {"gain_x2"}, 4, 0));
  sched.run_admission();
  sys.run_system_cycles(800);
  quiesce(sys);
  const std::string blob = SystemSnapshot::save(sys, 2, &sched);
  EXPECT_NO_THROW(decode_cold(blob, quad_params()));
  for (const SectionSpan& s : sections_of(blob)) {
    SCOPED_TRACE(s.name);
    const std::string longer =
        reseal(blob, s, blob.substr(s.payload, s.size) + std::string(1, '\0'));
    EXPECT_THROW(decode_cold(longer, quad_params()), ModelError);
  }
}

// Byte mutations of every section, re-sealed so the container's digests
// pass, must end in ModelError or a clean run — never a crash. Runs under
// ASan/UBSan with the rest of the snap label.
TEST(Snap, ResealedMutationsNeverCrashTheDecoders) {
  obs::Registry::instance().reset();
  reset_fault_injector();

  // Cold + scheduler: one gain_x2 stream on the quad floorplan.
  {
    core::VapresSystem sys(quad_params());
    sys.bring_up_all_sites();
    sched::ApplicationScheduler sched(sys);
    const int app = sched.submit(make_app("m", {"gain_x2"}, 4, 0));
    sched.run_admission();
    ASSERT_TRUE(sched.app(app).running());
    sys.run_system_cycles(800);
    quiesce(sys);
    const std::string blob = SystemSnapshot::save(sys, 2, &sched);
    EXPECT_NO_THROW(decode_cold(blob, quad_params()));
    const int tried = mutate_every_section(
        blob, [](const std::string& m) { decode_cold(m, quad_params()); });
    EXPECT_GT(tried, 1000);
  }

  // Warm: an in-flight switch journal, reconciled against a live fabric
  // rebuilt from a cold blob of the same rig taken before the switch.
  {
    SwitchRig rig;
    // Capped sink histories keep the blob (and each mutant) small.
    for (int i = 0; i < rig.sys->rsb().num_ioms(); ++i) {
      rig.sys->rsb().iom(i).set_received_history_limit(64);
    }
    quiesce(*rig.sys);
    const std::string base = SystemSnapshot::save(*rig.sys, 1, rig.sched.get());
    core::SystemParams params = rig.sys->params();
    core::ModuleSwitcher sw(*rig.sys, rig.request());
    sw.begin();
    ASSERT_TRUE(
        rig.run_to_state(sw, core::ModuleSwitcher::State::kRerouteUpstream));
    const std::string warm =
        SystemSnapshot::save(*rig.sys, 9, rig.sched.get(), &sw);
    rig.sys->mb().remove_task(&sw);
    const auto decode_warm = [&](const std::string& m) {
      auto live = SystemSnapshot::restore_system(base, params);
      WarmRestart wr = SystemSnapshot::warm_restart(m, *live);
      live->run_system_cycles(200);
      if (wr.switcher != nullptr) live->mb().remove_task(wr.switcher.get());
    };
    EXPECT_NO_THROW(decode_warm(warm));
    EXPECT_GT(mutate_every_section(warm, decode_warm), 1000);
  }

  // Soak harness: the resumed run ends at the checkpoint, so each mutant
  // costs one restore plus the final invariant sweep.
  {
    load::SoakOptions opt;
    opt.seed = 5;
    opt.lifetimes = 12;
    std::string blob;
    load::SoakOptions crash = opt;
    crash.snapshot_at = 12;
    crash.snapshot_out = &blob;
    crash.stop_at_snapshot = true;
    load::run_soak(crash);
    ASSERT_FALSE(blob.empty());
    const auto decode_soak = [&](const std::string& m) {
      load::SoakOptions resume = opt;
      resume.resume_from = m;
      load::run_soak(resume);
    };
    EXPECT_NO_THROW(decode_soak(blob));
    EXPECT_GT(mutate_every_section(blob, decode_soak), 500);
  }
  reset_fault_injector();
}

INSTANTIATE_TEST_SUITE_P(
    AllSteps, SnapSwitchResume,
    ::testing::Values(core::ModuleSwitcher::State::kQuiesceUpstream,
                      core::ModuleSwitcher::State::kRerouteUpstream,
                      core::ModuleSwitcher::State::kSendFlush,
                      core::ModuleSwitcher::State::kCollectState,
                      core::ModuleSwitcher::State::kInitNewModule,
                      core::ModuleSwitcher::State::kWaitIomEos,
                      core::ModuleSwitcher::State::kQuiesceSrc,
                      core::ModuleSwitcher::State::kRerouteDownstream));

}  // namespace
}  // namespace vapres::snap
