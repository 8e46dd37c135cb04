#include "snap/system_snapshot.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bitman/prefetch.hpp"
#include "bitstream/bitstream.hpp"
#include "core/prsocket.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"
#include "snap/format.hpp"

namespace vapres::snap {

// Every section's fields are listed once, in the visit members of the
// components (snap/format.hpp); the functions below pick the components a
// section carries. Save emits the sections in wire order. A restore
// applies them in dependency order, as the numbered steps in
// restore_system() spell out.

namespace {

/// meta: the construction fingerprint a restore must match. `built`
/// yields the system whose floorplan travels — the live one on save; on
/// restore, the one built once the parameters verified.
template <class Ar, class Build>
void visit_meta(Ar& ar, const core::SystemParams& p, Build&& built) {
  ar.check(p.name, "restore: system name mismatch");
  ar.check(p.device.name(), "restore: device mismatch");
  ar.check(p.system_clock_mhz, "restore: system clock mismatch");
  ar.check(p.prr_clock_a_mhz, "restore: PRR clock A mismatch");
  ar.check(p.prr_clock_b_mhz, "restore: PRR clock B mismatch");
  ar.check(p.sdram_bytes, "restore: SDRAM capacity mismatch");
  ar.count(p.rsbs.size(), "restore: RSB count mismatch");
  for (const core::RsbParams& r : p.rsbs) {
    for (const int v : {r.num_prrs, r.num_ioms, r.width_bits, r.kr, r.kl, r.ki,
                        r.ko, r.fifo_depth, r.prr_height_clbs,
                        r.prr_width_clbs}) {
      ar.check(v, "restore: RSB parameter mismatch");
    }
  }
  const core::VapresSystem& sys = built();
  ar.check(sys.prr_floorplan(), "restore: PRR floorplan mismatch");
}

/// One bitstream store (CF files or SDRAM arrays), in name order, with the
/// wire form of a vector of (name, bitstream) pairs. Save writes each
/// stored bitstream in place; a restore replays the pairs into the fresh
/// store through its public API.
template <class Ar, class Store>
void visit_store(Ar& ar, Store& store) {
  if constexpr (Ar::kReading) {
    std::vector<std::pair<std::string, bitstream::PartialBitstream>> files;
    ar(files);
    for (auto& [name, bs] : files) store.store(name, std::move(bs));
  } else {
    const std::vector<std::string> names = store.list();
    ar.u32(static_cast<std::uint32_t>(names.size()));
    for (const std::string& name : names) ar(name, store.read(name));
  }
}

/// rsbN: switch boxes, IOMs, PRRs, channels. The component visits carry
/// their own restore steps: socket writes replay, each PRR reloads its
/// module before the wrapper overlay, and channels are re-established
/// under their saved route ids.
template <class Ar>
void visit_rsb(Ar& ar, core::VapresSystem& sys, core::Rsb& rsb,
               bool generators_journaled) {
  comm::SwitchFabric& fab = rsb.fabric();
  std::size_t boxes_at = 0;
  if constexpr (Ar::kReading) boxes_at = ar.position();
  ar(fab);
  ar.count(static_cast<std::size_t>(rsb.num_ioms()),
           "restore: IOM count mismatch");
  for (int i = 0; i < rsb.num_ioms(); ++i) {
    rsb.iom(i).visit(ar, generators_journaled);
  }
  ar.count(static_cast<std::size_t>(rsb.num_prrs()),
           "restore: PRR count mismatch");
  for (int p = 0; p < rsb.num_prrs(); ++p) rsb.prr(p).visit(ar, sys.library());
  ar(rsb.channels());
  if constexpr (Ar::kReading) {
    // Box registers are read first but overlaid last: the socket writes
    // and route programming above both moved mux selects, and the exact
    // saved registers must win.
    ar.reread(boxes_at, [&] { ar(fab); });
  }
}

/// sched: the options, then the scheduler state. A restore builds the
/// scheduler from the options and returns it.
template <class Ar>
std::unique_ptr<sched::ApplicationScheduler> visit_sched(
    Ar& ar, core::VapresSystem& sys, const sched::ApplicationScheduler* live,
    std::vector<bool>& generator_live) {
  sched::ApplicationScheduler::Options opt;
  if (live != nullptr) opt = live->options();
  ar(opt);
  std::unique_ptr<sched::ApplicationScheduler> built;
  auto* sc = const_cast<sched::ApplicationScheduler*>(live);
  if constexpr (Ar::kReading) {
    built = std::make_unique<sched::ApplicationScheduler>(sys, opt);
    sc = built.get();
  }
  sc->visit(ar, generator_live);
  return built;
}

/// switch: the request, then the protocol journal. A restore builds the
/// switcher from the request and returns it.
template <class Ar>
std::unique_ptr<core::ModuleSwitcher> visit_switch(
    Ar& ar, core::VapresSystem& sys, const core::ModuleSwitcher* live) {
  core::SwitchRequest req;
  if (live != nullptr) req = live->request();
  ar(req);
  std::unique_ptr<core::ModuleSwitcher> built;
  auto* sw = const_cast<core::ModuleSwitcher*>(live);
  if constexpr (Ar::kReading) {
    built = std::make_unique<core::ModuleSwitcher>(sys, req);
    sw = built.get();
  }
  sw->visit(ar);
  return built;
}

}  // namespace

// ---------------------------------------------------------------------------
// save
// ---------------------------------------------------------------------------

std::string SystemSnapshot::save(core::VapresSystem& sys, std::uint64_t epoch,
                                 const sched::ApplicationScheduler* sched,
                                 const core::ModuleSwitcher* switcher) {
  // ---- Quiescence preconditions (cold snapshots only). A warm snapshot
  // journals an in-flight switch: the transfer path, MicroBlaze task list,
  // and event queue are allowed to be busy because a warm restart never
  // rebuilds them from the blob — it reconciles against the live fabric.
  if (switcher == nullptr) {
    VAPRES_REQUIRE(!sys.reconfig().busy(),
                   "snapshot: reconfiguration in flight (drain first)");
    VAPRES_REQUIRE(!sys.icap().busy(), "snapshot: ICAP transfer in flight");
    VAPRES_REQUIRE(sys.mb().at_rest(),
                   "snapshot: MicroBlaze task, callback, interrupt "
                   "controller or unarmed busy span pending");
    VAPRES_REQUIRE(sys.prefetch().pending() == 0 && !sys.prefetch().staging(),
                   "snapshot: prefetch engine not idle");
    VAPRES_REQUIRE(sys.bitman().at_rest(),
                   "snapshot: bitman staging in flight or entry pinned");
    VAPRES_REQUIRE(sys.sim().events().pending() ==
                       (sys.mb().busy_wake_armed() ? 1u : 0u),
                   "snapshot: pending events other than the busy wake");
  }

  SnapshotWriter w(epoch);
  w.section("meta", [&] {
    visit_meta(w, sys.params(), [&]() -> core::VapresSystem& { return sys; });
  });
  w.section("sim", [&] { w(sys.sim()); });
  w.section("mb", [&] { w(sys.mb()); });
  w.section("dcr", [&] { w(sys.dcr()); });
  w.section("icap", [&] { w(sys.icap()); });
  w.section("reconfig", [&] { w(sys.reconfig()); });
  w.section("storage", [&] {
    visit_store(w, sys.compact_flash());
    visit_store(w, sys.sdram());
  });
  w.section("bitman", [&] { w(sys.bitman()); });
  for (int ri = 0; ri < sys.num_rsbs(); ++ri) {
    w.section("rsb" + std::to_string(ri), [&] {
      visit_rsb(w, sys, sys.rsb(ri), sched != nullptr);
    });
  }
  w.section("fault", [&] { w(sim::FaultInjector::instance()); });
  w.section("obs", [&] { w(obs::Registry::instance()); });
  if (sched != nullptr) {
    std::vector<bool> unused;
    w.section("sched", [&] { visit_sched(w, sys, sched, unused); });
  }
  if (switcher != nullptr) {
    w.section("switch", [&] { visit_switch(w, sys, switcher); });
  }
  return w.finish();
}

// ---------------------------------------------------------------------------
// blob probes
// ---------------------------------------------------------------------------

std::uint64_t SystemSnapshot::epoch(const std::string& blob) {
  return SnapshotReader(blob).epoch();
}

bool SystemSnapshot::has_scheduler(const std::string& blob) {
  return SnapshotReader(blob).has_section("sched");
}

bool SystemSnapshot::has_switch(const std::string& blob) {
  return SnapshotReader(blob).has_section("switch");
}

// ---------------------------------------------------------------------------
// cold restore
// ---------------------------------------------------------------------------

std::unique_ptr<core::VapresSystem> SystemSnapshot::restore_system(
    const std::string& blob, core::SystemParams params,
    hwmodule::ModuleLibrary library) {
  SnapshotReader r(blob);
  VAPRES_REQUIRE(!r.has_section("switch"),
                 "cold restore refuses a warm snapshot (in-flight switch "
                 "journal); use warm_restart against the live fabric");
  const bool has_sched = r.has_section("sched");

  // 1. meta: the fingerprint is verified before the system is built.
  std::unique_ptr<core::VapresSystem> sys;
  r.section("meta", [&] {
    visit_meta(r, params, [&]() -> core::VapresSystem& {
      sys = std::make_unique<core::VapresSystem>(std::move(params),
                                                 std::move(library));
      return *sys;
    });
  });

  // 2. storage: CF files and SDRAM arrays, replayed into the fresh stores
  // through their public API.
  r.section("storage", [&] {
    visit_store(r, sys->compact_flash());
    visit_store(r, sys->sdram());
  });

  // 3. RSBs: sockets replay, modules reload before their wrapper overlays,
  // channels are re-established under their saved route ids, and box
  // registers are overlaid after route programming (visit_rsb).
  for (int ri = 0; ri < sys->num_rsbs(); ++ri) {
    r.section("rsb" + std::to_string(ri),
              [&] { visit_rsb(r, *sys, sys->rsb(ri), has_sched); });
  }

  // 4. Clock domains and global time, after the socket CLK writes above
  // retuned the PRR domains.
  r.section("sim", [&] { r(sys->sim()); });

  // 5. MicroBlaze, once the time is restored: its busy wake re-arms at the
  // saved absolute delay.
  r.section("mb", [&] { r(sys->mb()); });

  // 6. Counters and tables no other step touches.
  r.section("dcr", [&] { r(sys->dcr()); });
  r.section("icap", [&] { r(sys->icap()); });
  r.section("reconfig", [&] { r(sys->reconfig()); });
  r.section("bitman", [&] { r(sys->bitman()); });
  r.section("fault", [&] { r(sim::FaultInjector::instance()); });

  // 7. Metrics registry last (nonzero values only; everything else is
  // zeroed), so no earlier step can disturb the values.
  r.section("obs", [&] { r(obs::Registry::instance()); });

  // 8. Wake everything: the first post-restore tick re-evaluates all
  // activity flags, so nothing sleeps through state it should act on.
  sys->sim().wake_all();
  return sys;
}

// ---------------------------------------------------------------------------
// scheduler restore (cold path, over a just-restored system)
// ---------------------------------------------------------------------------

std::unique_ptr<sched::ApplicationScheduler> SystemSnapshot::restore_scheduler(
    const std::string& blob, core::VapresSystem& sys) {
  SnapshotReader r(blob);
  VAPRES_REQUIRE(r.has_section("sched"),
                 "restore_scheduler: no scheduler section in snapshot");
  std::unique_ptr<sched::ApplicationScheduler> sched;
  std::vector<bool> generator_live;
  r.section("sched",
            [&] { sched = visit_sched(r, sys, nullptr, generator_live); });

  // Re-install each running app's counting source generator with its
  // remaining word budget — the closure the scheduler installs at launch,
  // resumed at the next word it would have drawn, without restarting the
  // source's pacing.
  core::Rsb& rsb = sys.rsb(sched->options().rsb_index);
  for (int id = sched->first_live_id(); id < sched->num_apps(); ++id) {
    const sched::AppRecord& rec = sched->app(id);
    if (!rec.running() ||
        !generator_live[static_cast<std::size_t>(id - sched->first_live_id())]) {
      continue;
    }
    core::Iom& iom = rsb.iom(rec.source.iom);
    const std::uint64_t drawn =
        iom.words_drawn(rec.source.channel) - rec.base_words_emitted;
    iom.resume_source_generator(
        sched::counting_source(drawn, rec.request.source_words),
        rec.source.channel);
  }
  return sched;
}

// ---------------------------------------------------------------------------
// warm restart
// ---------------------------------------------------------------------------

WarmRestart SystemSnapshot::warm_restart(const std::string& blob,
                                         core::VapresSystem& sys) {
  SnapshotReader r(blob);
  VAPRES_REQUIRE(r.has_section("sched"),
                 "warm_restart: no scheduler journal in snapshot");
  WarmRestart out;
  // The fabric survived, so every generator closure is still running
  // inside the live IOMs: nothing to re-install.
  std::vector<bool> generator_live;
  r.section("sched",
            [&] { out.scheduler = visit_sched(r, sys, nullptr, generator_live); });
  std::unique_ptr<core::ModuleSwitcher> sw;
  if (r.has_section("switch")) {
    r.section("switch", [&] { sw = visit_switch(r, sys, nullptr); });
  }

  // Reconcile the journal against the live fabric. A crash after a
  // re-route leaves journaled app records naming the pre-switch channel
  // while the fabric carries the re-routed one.
  std::map<core::ChannelId, core::ChannelId> renamed;
  if (sw != nullptr) {
    if (sw->new_upstream() != 0) {
      renamed[sw->request().upstream] = sw->new_upstream();
    }
    if (sw->new_downstream() != 0) {
      renamed[sw->request().downstream] = sw->new_downstream();
    }
  }
  static_cast<sched::Reconciliation&>(out.report) =
      out.scheduler->reconcile(renamed);

  // ---- In-flight switch: resume from the journaled step, or roll back.
  if (sw != nullptr) {
    using St = core::ModuleSwitcher::State;
    const core::SwitchRequest& req = sw->request();
    core::Rsb& srsb = sys.rsb(req.rsb_index);
    if (sw->state() == St::kReconfiguring) {
      // The crash interrupted step 3: the new module is still outside the
      // processing path (no channel moved yet), so rollback is the safe
      // default — let any in-flight PR land, then discard its effect.
      sys.drain_transfer_path();
      core::Prr& dst = srsb.prr(req.dst_prr);
      dst.unload_module();
      const comm::DcrValue clear_bits =
          core::PrSocket::kSmEn | core::PrSocket::kClkEn |
          core::PrSocket::kFifoWen | core::PrSocket::kFifoRen |
          core::PrSocket::kPrrReset;
      dst.socket().dcr_write(dst.socket().value() & ~clear_bits);
      sim::FaultInjector::instance().note_recovery(
          sim::RecoveryEvent::kSwitchRollback);
      obs::Registry::instance().counter("switch.rollbacks").add(1);
      out.report.switch_rolled_back = true;
      out.report.notes.push_back(
          "rolled back in-flight switch (crashed during PR of " +
          req.new_module_id + ")");
    } else if (sw->state() == St::kDone || sw->state() == St::kAborted ||
               sw->state() == St::kIdle) {
      out.report.notes.push_back("journaled switch already terminal");
    } else {
      // Steps 4-9: the PR completed before the crash; the rebuilt switcher
      // finishes the protocol.
      const int step = sw->resume_journaled();
      out.report.switch_resumed = true;
      out.report.notes.push_back("resumed in-flight switch at step " +
                                 std::to_string(step));
      out.switcher = std::move(sw);
    }
  }
  return out;
}

}  // namespace vapres::snap
