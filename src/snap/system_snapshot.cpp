#include "snap/system_snapshot.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitman/prefetch.hpp"
#include "bitstream/bitstream.hpp"
#include "comm/fifo.hpp"
#include "comm/flit.hpp"
#include "core/prsocket.hpp"
#include "obs/bus.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"
#include "snap/format.hpp"

namespace vapres::snap {

namespace {

/// obs step code for a resumed protocol state (Figure 5 numbering).
std::uint16_t step_code_for(core::ModuleSwitcher::State s) {
  using St = core::ModuleSwitcher::State;
  switch (s) {
    case St::kReconfiguring:     return obs::ev::kStep1Reconfigure;
    case St::kQuiesceUpstream:   return obs::ev::kStep2QuiesceUpstream;
    case St::kRerouteUpstream:   return obs::ev::kStep3RerouteUpstream;
    case St::kSendFlush:         return obs::ev::kStep4SendFlush;
    case St::kCollectState:      return obs::ev::kStep5CollectState;
    case St::kInitNewModule:     return obs::ev::kStep6InitNewModule;
    case St::kWaitIomEos:        return obs::ev::kStep7WaitIomEos;
    case St::kQuiesceSrc:        return obs::ev::kStep8QuiesceSrc;
    case St::kRerouteDownstream: return obs::ev::kStep9RerouteDownstream;
    default:                     return 0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// save
// ---------------------------------------------------------------------------

std::string SystemSnapshot::save(core::VapresSystem& sys, std::uint64_t epoch,
                                 const sched::ApplicationScheduler* sched,
                                 const core::ModuleSwitcher* switcher) {
  const bool warm = switcher != nullptr;

  // ---- Quiescence preconditions (cold snapshots only). A warm snapshot
  // journals an in-flight switch: the transfer path, MicroBlaze task list,
  // and event queue are allowed to be busy because a warm restart never
  // rebuilds them from the blob — it reconciles against the live fabric.
  if (!warm) {
    VAPRES_REQUIRE(!sys.reconfig_->busy_ && sys.reconfig_->inflight_ == nullptr,
                   "snapshot: reconfiguration in flight (drain first)");
    VAPRES_REQUIRE(!sys.icap_.busy_, "snapshot: ICAP transfer in flight");
    VAPRES_REQUIRE(sys.mb_->tasks_.empty(),
                   "snapshot: software tasks still registered");
    VAPRES_REQUIRE(sys.mb_->on_idle_ == nullptr,
                   "snapshot: busy-completion callback pending");
    VAPRES_REQUIRE(sys.mb_->intc_ == nullptr,
                   "snapshot: interrupt controller attached");
    VAPRES_REQUIRE(sys.prefetch_->pending() == 0 && !sys.prefetch_->staging(),
                   "snapshot: prefetch engine not idle");
    VAPRES_REQUIRE(sys.bitman_->staging_.empty() &&
                       sys.bitman_->reserved_bytes_ == 0,
                   "snapshot: bitman staging in flight");
    for (const auto& [key, e] : sys.bitman_->entries_) {
      VAPRES_REQUIRE(e.pins == 0, "snapshot: pinned cache entry " + key);
    }
    const bool wake_armed = sys.mb_->busy_wake_.has_value();
    VAPRES_REQUIRE(sys.sim_.events_.pending() == (wake_armed ? 1u : 0u),
                   "snapshot: pending events other than the busy wake");
    if (sys.mb_->busy_anchored_) {
      VAPRES_REQUIRE(wake_armed &&
                         sys.mb_->busy_wake_cycle_ == sys.mb_->busy_last_cycle_,
                     "snapshot: anchored busy span without its wake armed");
    }
  }
  // A live source generator is an opaque closure; only scheduler-installed
  // generators (counting word streams) can be reconstructed from a journal.
  for (int ri = 0; ri < sys.num_rsbs(); ++ri) {
    core::Rsb& rsb = sys.rsb(ri);
    for (int ii = 0; ii < rsb.num_ioms(); ++ii) {
      for (const auto& src : rsb.iom(ii).sources_) {
        VAPRES_REQUIRE(!(src.generator && sched == nullptr),
                       "snapshot: live ad-hoc source generator is not "
                       "serializable; pass the owning scheduler");
      }
    }
  }

  SnapshotWriter w(epoch);

  // ---- Serialization helpers. Local lambdas inherit this member
  // function's friend access to the component internals.
  const auto put_flit = [&w](const comm::Flit& f) {
    w.u32(f.data);
    w.boolean(f.valid);
  };
  const auto put_fifo = [&w](const comm::Fifo& f) {
    w.u32(static_cast<std::uint32_t>(f.words_.size()));
    for (const comm::Word word : f.words_) w.u32(word);
    w.u64(f.pushed_);
    w.u64(f.popped_);
    w.u64(f.fault_dropped_);
    w.u64(f.fault_duplicated_);
    w.i64(f.high_watermark_);
  };
  const auto put_words = [&w](const std::vector<comm::Word>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const comm::Word word : v) w.u32(word);
  };
  const auto put_producer = [&](const comm::ProducerInterface& p) {
    put_fifo(p.fifo_);
    w.boolean(p.read_enable_);
    put_flit(p.output_);
    put_flit(p.next_output_);
    w.boolean(p.pop_pending_);
    w.u64(p.words_sent_);
    w.u64(p.stall_cycles_);
  };
  const auto put_consumer = [&](const comm::ConsumerInterface& c) {
    put_fifo(c.fifo_);
    w.boolean(c.write_enable_);
    w.i64(c.hops_);
    w.u8(static_cast<std::uint8_t>(c.policy_));
    w.boolean(c.full_feedback_);
    w.boolean(c.next_full_feedback_);
    put_flit(c.pending_);
    w.u64(c.words_received_);
    w.u64(c.words_discarded_);
  };
  const auto put_fsl = [&](const comm::FslLink& l) { put_fifo(l.fifo_); };
  const auto put_bitstream = [&w](const bitstream::PartialBitstream& bs) {
    w.str(bs.module_id);
    w.str(bs.target_prr);
    w.i64(bs.region.row);
    w.i64(bs.region.col);
    w.i64(bs.region.height);
    w.i64(bs.region.width);
    w.i64(bs.size_bytes);
    w.u32(bs.tag);
  };

  // ---- meta: the construction fingerprint a restore must match.
  {
    const core::SystemParams& p = sys.params_;
    w.begin_section("meta");
    w.str(p.name);
    w.str(p.device.name());
    w.f64(p.system_clock_mhz);
    w.f64(p.prr_clock_a_mhz);
    w.f64(p.prr_clock_b_mhz);
    w.i64(p.sdram_bytes);
    w.u32(static_cast<std::uint32_t>(p.rsbs.size()));
    for (const core::RsbParams& r : p.rsbs) {
      w.i64(r.num_prrs);
      w.i64(r.num_ioms);
      w.i64(r.width_bits);
      w.i64(r.kr);
      w.i64(r.kl);
      w.i64(r.ki);
      w.i64(r.ko);
      w.i64(r.fifo_depth);
      w.i64(r.prr_height_clbs);
      w.i64(r.prr_width_clbs);
    }
    w.u32(static_cast<std::uint32_t>(sys.floorplan_.size()));
    for (const fabric::ClbRect& rect : sys.floorplan_) {
      w.i64(rect.row);
      w.i64(rect.col);
      w.i64(rect.height);
      w.i64(rect.width);
    }
    w.end_section();
  }

  // ---- sim: kernel mode, global time, per-domain clock state.
  // KernelStats are deliberately excluded: restore wakes every component,
  // so edge-delivery accounting diverges while architectural state does
  // not (the quiescent() contract guarantees the extra edges are no-ops).
  {
    w.begin_section("sim");
    w.boolean(sys.sim_.activity_driven_);
    w.u64(sys.sim_.now_);
    w.u32(static_cast<std::uint32_t>(sys.sim_.domains().size()));
    for (const auto& d : sys.sim_.domains()) {
      w.str(d->name_);
      w.u64(d->period_ps_);
      w.boolean(d->enabled_);
      w.u64(d->cycle_count_);
      w.u64(d->anchor_ps_);
    }
    w.end_section();
  }

  // ---- mb: busy-span machinery and lifetime counters.
  {
    const proc::Microblaze& mb = *sys.mb_;
    w.begin_section("mb");
    w.u64(mb.busy_pending_);
    w.boolean(mb.busy_anchored_);
    w.u64(mb.busy_last_cycle_);
    const bool wake_armed = mb.busy_wake_.has_value();
    w.boolean(wake_armed);
    // Absolute remaining delay: at restore "now" need not be edge-aligned,
    // so re-arming through arm_busy_wake() would misplace the expiry edge.
    std::uint64_t wake_delay = 0;
    if (wake_armed && !sys.sim_.events_.empty()) {
      wake_delay = sys.sim_.events_.next_time() - sys.sim_.now_;
    }
    w.u64(wake_delay);
    w.u64(mb.total_busy_cycles_);
    w.u64(mb.interrupts_serviced_);
    w.end_section();
  }

  // ---- dcr / icap / reconfig.
  {
    w.begin_section("dcr");
    w.u64(sys.dcr_.accesses_);
    w.end_section();

    w.begin_section("icap");
    w.f64(sys.icap_.port_clock_mhz_);
    w.i64(sys.icap_.total_bytes_);
    w.i64(sys.icap_.transfers_);
    w.i64(sys.icap_.corrupted_);
    w.i64(sys.icap_.timed_out_);
    w.end_section();

    const core::ReconfigManager& rc = *sys.reconfig_;
    w.begin_section("reconfig");
    w.boolean(rc.verify_);
    w.i64(rc.policy_.max_attempts);
    w.u64(rc.policy_.backoff_base_cycles);
    w.boolean(rc.policy_.fallback_to_cf);
    w.f64(rc.last_.storage_cycles);
    w.f64(rc.last_.icap_cycles);
    w.i64(rc.completed_);
    w.i64(rc.retries_);
    w.i64(rc.fallbacks_);
    w.i64(rc.failures_);
    w.end_section();
  }

  // ---- storage: CF files and SDRAM arrays (map order = deterministic).
  {
    w.begin_section("storage");
    const auto cf_files = sys.cf_.list();
    w.u32(static_cast<std::uint32_t>(cf_files.size()));
    for (const std::string& name : cf_files) {
      w.str(name);
      put_bitstream(sys.cf_.read(name));
    }
    const auto arrays = sys.sdram_->list();
    w.u32(static_cast<std::uint32_t>(arrays.size()));
    for (const std::string& key : arrays) {
      w.str(key);
      put_bitstream(sys.sdram_->read(key));
    }
    w.end_section();
  }

  // ---- bitman: cache residency metadata and predictor tables.
  {
    const bitman::BitstreamManager& bm = *sys.bitman_;
    w.begin_section("bitman");
    w.boolean(bm.opt_.stage_on_miss);
    w.i64(bm.opt_.stream_chunk_bytes);
    w.boolean(bm.opt_.predict_next);
    w.u64(bm.stats_.hits);
    w.u64(bm.stats_.misses);
    w.u64(bm.stats_.streamed_misses);
    w.u64(bm.stats_.evictions);
    w.i64(bm.stats_.evicted_bytes);
    w.u64(bm.stats_.staged);
    w.u64(bm.stats_.replaced);
    w.u64(bm.stats_.invalidations);
    w.u64(bm.stats_.prefetch_issued);
    w.u64(bm.stats_.prefetch_completed);
    w.u64(bm.stats_.prefetch_cancelled);
    w.u64(bm.stats_.prefetch_useful);
    w.u64(bm.use_tick_);
    w.u32(static_cast<std::uint32_t>(bm.entries_.size()));
    for (const auto& [key, e] : bm.entries_) {
      w.str(key);
      w.u64(e.last_use);
      w.boolean(e.prefetched);
      w.boolean(e.demand_hit_seen);
    }
    w.u32(static_cast<std::uint32_t>(bm.last_module_.size()));
    for (const auto& [prr, mod] : bm.last_module_) {
      w.str(prr);
      w.str(mod);
    }
    w.u32(static_cast<std::uint32_t>(bm.next_after_.size()));
    for (const auto& [prr, table] : bm.next_after_) {
      w.str(prr);
      w.u32(static_cast<std::uint32_t>(table.size()));
      for (const auto& [last, next] : table) {
        w.str(last);
        w.str(next);
      }
    }
    w.end_section();
  }

  // ---- per-RSB fabric state: boxes, IOMs, PRRs, channels.
  for (int ri = 0; ri < sys.num_rsbs(); ++ri) {
    core::Rsb& rsb = sys.rsb(ri);
    comm::SwitchFabric& fab = rsb.fabric();
    const comm::SwitchBoxShape& sh = fab.shape();
    w.begin_section("rsb" + std::to_string(ri));

    // Switch boxes: input registers, mux selects, outputs, stuck latches.
    w.u32(static_cast<std::uint32_t>(fab.num_boxes()));
    for (int b = 0; b < fab.num_boxes(); ++b) {
      for (int i = 0; i < sh.num_inputs(); ++i) {
        const auto k = static_cast<std::size_t>(b * sh.num_inputs() + i);
        put_flit(fab.regs_[k]);
        put_flit(fab.regs_next_[k]);
      }
      for (int o = 0; o < sh.num_outputs(); ++o) {
        const auto k = static_cast<std::size_t>(b * sh.num_outputs() + o);
        w.i64(fab.selects_[k]);
        put_flit(fab.out_[k]);
        w.boolean(fab.stuck_[k] != 0);
      }
      w.i64(fab.stuck_events_[static_cast<std::size_t>(b)]);
    }

    // IOMs: socket, FSLs, source/sink halves.
    w.u32(static_cast<std::uint32_t>(rsb.num_ioms()));
    for (int ii = 0; ii < rsb.num_ioms(); ++ii) {
      core::Iom& iom = rsb.iom(ii);
      w.u32(iom.socket().value());
      w.u64(iom.history_limit_);
      put_fsl(*iom.fsl_to_mb_);
      put_fsl(*iom.fsl_from_mb_);
      w.u32(static_cast<std::uint32_t>(iom.sources_.size()));
      for (const auto& s : iom.sources_) {
        w.boolean(static_cast<bool>(s.generator));
        w.i64(s.interval_cycles);
        w.u64(s.next_emit_cycle);
        w.boolean(s.pending.has_value());
        w.u32(s.pending.value_or(0));
        w.u64(s.words_emitted);
        w.u64(s.stalls);
        put_producer(*s.interface);
      }
      w.u32(static_cast<std::uint32_t>(iom.sinks_.size()));
      for (const auto& k : iom.sinks_) {
        put_consumer(*k.interface);
        put_words(k.received);
        w.u64(k.words_received);
        w.u64(k.dropped);
        w.u64(k.eos_seen);
        w.boolean(k.have_last_arrival);
        w.u64(k.last_arrival);
        w.u64(k.max_gap);
      }
    }

    // PRRs: module occupancy, socket/perf, wrapper protocol, interfaces.
    w.u32(static_cast<std::uint32_t>(rsb.num_prrs()));
    for (int pi = 0; pi < rsb.num_prrs(); ++pi) {
      core::Prr& prr = rsb.prr(pi);
      hwmodule::ModuleWrapper& wr = *prr.wrapper_;
      const bool loaded = wr.behavior_ != nullptr;
      w.boolean(loaded);
      // loaded_module_ can outlive the module (blank_prr unloads the
      // wrapper but keeps the name); serialize both.
      w.str(prr.loaded_module_);
      w.i64(prr.reconfigurations_);
      w.u32(prr.socket().value());
      w.u8(static_cast<std::uint8_t>(prr.perf_->selected()));
      w.u8(static_cast<std::uint8_t>(wr.phase_));
      w.boolean(wr.in_reset_);
      w.boolean(wr.isolated_);
      w.u64(wr.words_processed_);
      put_words(wr.state_out_);
      w.u64(wr.state_cursor_);
      w.i64(wr.load_remaining_);
      put_words(wr.state_in_);
      if (loaded) {
        VAPRES_REQUIRE(wr.behavior_->type_id() == prr.loaded_module_,
                       "snapshot: wrapper/module bookkeeping out of sync at " +
                           prr.name());
        put_words(wr.behavior_->save_state());
        put_words(wr.behavior_->snapshot_extra());
      }
      for (const auto& c : prr.consumers_) put_consumer(*c);
      for (const auto& p : prr.producers_) put_producer(*p);
      put_fsl(*prr.fsl_to_mb_);
      put_fsl(*prr.fsl_from_mb_);
    }

    // Channels: id, spec, policy, route id, feedback pipeline.
    const core::ChannelManager& cm =
        const_cast<core::Rsb&>(rsb).channels();
    w.u32(static_cast<std::uint32_t>(cm.channels_.size()));
    for (const auto& [id, e] : cm.channels_) {
      w.u32(id);
      w.i64(e.spec.producer_box);
      w.i64(e.spec.producer_channel);
      w.i64(e.spec.consumer_box);
      w.i64(e.spec.consumer_channel);
      w.u32(static_cast<std::uint32_t>(e.spec.lanes.size()));
      for (const int lane : e.spec.lanes) w.i64(lane);
      w.u32(e.route);
      const auto& route = fab.routes_.at(e.route);
      w.u8(static_cast<std::uint8_t>(route.consumer->policy_));
      w.u32(static_cast<std::uint32_t>(route.feedback.depth));
      for (int st = 0; st < route.feedback.depth; ++st) {
        w.boolean(((route.feedback.stages >> st) & 1u) != 0);
      }
      w.boolean(route.feedback.output);
    }
    w.u32(cm.next_id_);
    w.u32(fab.next_route_id_);
    w.end_section();
  }

  // ---- fault: the process-wide injector (RNG stream + scoreboard).
  {
    const sim::FaultInjector& fi = sim::FaultInjector::instance();
    w.begin_section("fault");
    w.boolean(fi.enabled_);
    w.u64(fi.rng_.state());
    for (const auto& sp : fi.sites_) {
      w.f64(sp.probability);
      w.u64(sp.armed_at);
      w.u64(sp.armed_count);
      w.u64(sp.opportunities);
      w.u64(sp.injected);
    }
    for (const std::uint64_t rec : fi.recoveries_) w.u64(rec);
    w.end_section();
  }

  // ---- obs: the process-wide metrics registry. Only nonzero values are
  // serialized: a restored process may carry extra zero-valued
  // registrations the baseline run lacks at the same point, and those
  // must not change the bytes of a later snapshot.
  {
    w.begin_section("obs");
    obs::Registry& reg = obs::Registry::instance();
    const obs::MetricsSnapshot ms = reg.snapshot();
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (const auto& [name, v] : ms.counters) {
      if (v != 0) counters.emplace_back(name, v);
    }
    w.u32(static_cast<std::uint32_t>(counters.size()));
    for (const auto& [name, v] : counters) {
      w.str(name);
      w.u64(v);
    }
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    for (const auto& [name, v] : ms.gauges) {
      if (v != 0) gauges.emplace_back(name, v);
    }
    w.u32(static_cast<std::uint32_t>(gauges.size()));
    for (const auto& [name, v] : gauges) {
      w.str(name);
      w.i64(v);
    }
    std::vector<std::string> hists;
    for (const auto& h : ms.histograms) {
      if (h.count > 0) hists.push_back(h.name);
    }
    w.u32(static_cast<std::uint32_t>(hists.size()));
    for (const std::string& name : hists) {
      const obs::Histogram& h = reg.histogram(name);
      w.str(name);
      for (const std::uint64_t b : h.buckets_) w.u64(b);
      w.u64(h.count_);
      w.u64(h.sum_);
      w.u64(h.min_);
      w.u64(h.max_);
    }
    w.end_section();
  }

  // ---- sched (optional): app records, occupancy, counters.
  if (sched != nullptr) {
    const sched::ApplicationScheduler& sc = *sched;
    w.begin_section("sched");
    w.i64(sc.opt_.rsb_index);
    w.u8(static_cast<std::uint8_t>(sc.opt_.policy));
    w.boolean(sc.opt_.enable_defrag);
    w.boolean(sc.opt_.enable_preemption);
    w.i64(sc.opt_.max_defrag_migrations);
    w.u8(static_cast<std::uint8_t>(sc.opt_.source));
    w.boolean(sc.opt_.prefetch_hints);
    w.i64(sc.first_id_);
    w.i64(sc.preemptions_);
    w.i64(sc.defrag_migrations_);
    w.i64(sc.migration_rollbacks_);
    w.i64(sc.retired_admitted_);
    w.i64(sc.retired_admitted_after_defrag_);
    w.i64(sc.retired_admitted_after_preempt_);
    w.i64(sc.retired_rejected_);
    // FabricMap slots.
    w.u32(static_cast<std::uint32_t>(sc.map_.num_slots()));
    for (int p = 0; p < sc.map_.num_slots(); ++p) {
      const sched::PrrSlot& slot = sc.map_.slot(p);
      w.boolean(slot.free);
      w.i64(slot.app_id);
      w.i64(slot.chain_pos);
      w.str(slot.module_id);
      w.i64(slot.module_slices);
      w.boolean(slot.migratable);
    }
    // Channel-busy tables.
    const auto put_busy = [&w](const std::vector<std::vector<bool>>& t) {
      w.u32(static_cast<std::uint32_t>(t.size()));
      for (const auto& row : t) {
        w.u32(static_cast<std::uint32_t>(row.size()));
        for (const bool b : row) w.boolean(b);
      }
    };
    put_busy(sc.source_busy_);
    put_busy(sc.sink_busy_);
    // App records.
    core::Rsb& srsb = sys.rsb(sc.opt_.rsb_index);
    w.u32(static_cast<std::uint32_t>(sc.apps_.size()));
    for (const sched::AppRecord& rec : sc.apps_) {
      w.i64(rec.id);
      w.str(rec.request.name);
      w.u32(static_cast<std::uint32_t>(rec.request.modules.size()));
      for (const std::string& m : rec.request.modules) w.str(m);
      w.i64(rec.request.priority);
      w.i64(rec.request.source_interval_cycles);
      w.u64(rec.request.source_words);
      w.u8(static_cast<std::uint8_t>(rec.state));
      w.u8(static_cast<std::uint8_t>(rec.verdict));
      w.str(rec.reject_reason);
      w.i64(rec.source.iom);
      w.i64(rec.source.channel);
      w.i64(rec.sink.iom);
      w.i64(rec.sink.channel);
      w.u32(static_cast<std::uint32_t>(rec.prrs.size()));
      for (const int p : rec.prrs) w.i64(p);
      w.u32(static_cast<std::uint32_t>(rec.channels.size()));
      for (const core::ChannelId c : rec.channels) w.u32(c);
      w.u32(static_cast<std::uint32_t>(rec.clocks_mhz.size()));
      for (const double c : rec.clocks_mhz) w.f64(c);
      w.u64(rec.submitted_at);
      w.u64(rec.launched_at);
      w.u64(rec.stopped_at);
      w.u64(rec.admission_mb_cycles);
      w.u64(rec.base_words_emitted);
      w.u64(rec.base_words_received);
      w.u64(rec.final_words_in);
      w.u64(rec.final_words_out);
      w.i64(rec.migrations);
      // Whether the source generator is still installed right now — a
      // just-exhausted generator is nulled only on its next commit, so
      // this cannot be derived from word counts alone.
      bool generator_live = false;
      if (rec.running()) {
        generator_live = static_cast<bool>(
            srsb.iom(rec.source.iom)
                .sources_[static_cast<std::size_t>(rec.source.channel)]
                .generator);
      }
      w.boolean(generator_live);
    }
    w.end_section();
  }

  // ---- switch (optional, warm-only): the in-flight protocol journal.
  if (switcher != nullptr) {
    const core::ModuleSwitcher& sw = *switcher;
    w.begin_section("switch");
    w.i64(sw.req_.rsb_index);
    w.i64(sw.req_.src_prr);
    w.i64(sw.req_.dst_prr);
    w.str(sw.req_.new_module_id);
    w.u32(sw.req_.upstream);
    w.u32(sw.req_.downstream);
    w.i64(sw.req_.eos_iom);
    w.u8(static_cast<std::uint8_t>(sw.req_.source));
    w.u8(static_cast<std::uint8_t>(sw.state_));
    w.u64(sw.timeline_.started);
    w.u64(sw.timeline_.reconfig_done);
    w.u64(sw.timeline_.input_rerouted);
    w.u64(sw.timeline_.state_collected);
    w.u64(sw.timeline_.module_initialized);
    w.u64(sw.timeline_.iom_eos_seen);
    w.u64(sw.timeline_.completed);
    w.u64(sw.timeline_.aborted);
    w.boolean(sw.reconfig_complete_);
    w.boolean(sw.reconfig_ok_);
    put_words(sw.collected_state_);
    put_words(sw.monitoring_);
    w.boolean(sw.saw_header_);
    w.i64(sw.expected_words_);
    w.u32(sw.new_upstream_);
    w.u32(sw.new_downstream_);
    w.end_section();
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
  const SnapshotReader r(blob);
  VAPRES_REQUIRE(!r.has_section("switch"),
                 "cold restore refuses a warm snapshot (in-flight switch "
                 "journal); use warm_restart against the live fabric");
  const bool has_sched = r.has_section("sched");

  // ---- Deserialization helpers (friend access via local lambdas).
  const auto get_flit = [&r]() {
    comm::Flit f;
    f.data = r.u32();
    f.valid = r.boolean();
    return f;
  };
  const auto get_fifo = [&](comm::Fifo& f) {
    const std::uint32_t n = r.u32();
    f.words_.clear();
    for (std::uint32_t i = 0; i < n; ++i) f.words_.push_back(r.u32());
    f.pushed_ = r.u64();
    f.popped_ = r.u64();
    f.fault_dropped_ = r.u64();
    f.fault_duplicated_ = r.u64();
    f.high_watermark_ = static_cast<int>(r.i64());
  };
  const auto get_words = [&r]() {
    std::vector<comm::Word> v;
    const std::uint32_t n = r.u32();
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.u32());
    return v;
  };
  const auto get_producer = [&](comm::ProducerInterface& p) {
    get_fifo(p.fifo_);
    p.read_enable_ = r.boolean();
    p.output_ = get_flit();
    p.next_output_ = get_flit();
    p.pop_pending_ = r.boolean();
    p.words_sent_ = r.u64();
    p.stall_cycles_ = r.u64();
  };
  const auto get_consumer = [&](comm::ConsumerInterface& c) {
    get_fifo(c.fifo_);
    c.write_enable_ = r.boolean();
    c.hops_ = static_cast<int>(r.i64());
    c.policy_ = static_cast<comm::BackpressurePolicy>(r.u8());
    c.full_feedback_ = r.boolean();
    c.next_full_feedback_ = r.boolean();
    c.pending_ = get_flit();
    c.words_received_ = r.u64();
    c.words_discarded_ = r.u64();
  };
  const auto get_fsl = [&](comm::FslLink& l) { get_fifo(l.fifo_); };
  const auto get_bitstream = [&r]() {
    bitstream::PartialBitstream bs;
    bs.module_id = r.str();
    bs.target_prr = r.str();
    bs.region.row = static_cast<int>(r.i64());
    bs.region.col = static_cast<int>(r.i64());
    bs.region.height = static_cast<int>(r.i64());
    bs.region.width = static_cast<int>(r.i64());
    bs.size_bytes = r.i64();
    bs.tag = r.u32();
    return bs;
  };

  // ---- meta: verify the construction fingerprint before building.
  r.open_section("meta");
  VAPRES_REQUIRE(r.str() == params.name, "restore: system name mismatch");
  VAPRES_REQUIRE(r.str() == params.device.name(),
                 "restore: device mismatch");
  VAPRES_REQUIRE(r.f64() == params.system_clock_mhz,
                 "restore: system clock mismatch");
  VAPRES_REQUIRE(r.f64() == params.prr_clock_a_mhz,
                 "restore: PRR clock A mismatch");
  VAPRES_REQUIRE(r.f64() == params.prr_clock_b_mhz,
                 "restore: PRR clock B mismatch");
  VAPRES_REQUIRE(r.i64() == params.sdram_bytes,
                 "restore: SDRAM capacity mismatch");
  VAPRES_REQUIRE(r.u32() == params.rsbs.size(),
                 "restore: RSB count mismatch");
  for (const core::RsbParams& p : params.rsbs) {
    const bool rsb_match =
        r.i64() == p.num_prrs && r.i64() == p.num_ioms &&
        r.i64() == p.width_bits && r.i64() == p.kr && r.i64() == p.kl &&
        r.i64() == p.ki && r.i64() == p.ko && r.i64() == p.fifo_depth &&
        r.i64() == p.prr_height_clbs && r.i64() == p.prr_width_clbs;
    VAPRES_REQUIRE(rsb_match, "restore: RSB parameter mismatch");
  }
  const std::uint32_t n_rects = r.u32();
  std::vector<fabric::ClbRect> saved_floorplan;
  for (std::uint32_t i = 0; i < n_rects; ++i) {
    fabric::ClbRect rect;
    rect.row = static_cast<int>(r.i64());
    rect.col = static_cast<int>(r.i64());
    rect.height = static_cast<int>(r.i64());
    rect.width = static_cast<int>(r.i64());
    saved_floorplan.push_back(rect);
  }

  auto sys = std::make_unique<core::VapresSystem>(std::move(params),
                                                  std::move(library));
  VAPRES_REQUIRE(sys->floorplan_ == saved_floorplan,
                 "restore: PRR floorplan mismatch");

  // ---- sim: read into locals now; the domain overlay is applied after
  // the structural restore (socket CLK_sel writes retune PRR domains).
  struct DomainState {
    std::string name;
    std::uint64_t period_ps = 0;
    bool enabled = false;
    std::uint64_t cycle_count = 0;
    std::uint64_t anchor_ps = 0;
  };
  r.open_section("sim");
  const bool activity_driven = r.boolean();
  const std::uint64_t saved_now = r.u64();
  const std::uint32_t n_domains = r.u32();
  std::vector<DomainState> domain_states;
  for (std::uint32_t i = 0; i < n_domains; ++i) {
    DomainState d;
    d.name = r.str();
    d.period_ps = r.u64();
    d.enabled = r.boolean();
    d.cycle_count = r.u64();
    d.anchor_ps = r.u64();
    domain_states.push_back(std::move(d));
  }
  sys->sim_.set_activity_driven(activity_driven);

  // ---- storage: replay into the fresh (empty) stores via public API.
  {
    r.open_section("storage");
    const std::uint32_t n_cf = r.u32();
    for (std::uint32_t i = 0; i < n_cf; ++i) {
      const std::string name = r.str();
      sys->cf_.store(name, get_bitstream());
    }
    const std::uint32_t n_arrays = r.u32();
    for (std::uint32_t i = 0; i < n_arrays; ++i) {
      const std::string key = r.str();
      sys->sdram_->store(key, get_bitstream());
    }
  }

  // ---- per-RSB structural + raw restore.
  for (int ri = 0; ri < sys->num_rsbs(); ++ri) {
    core::Rsb& rsb = sys->rsb(ri);
    comm::SwitchFabric& fab = rsb.fabric();
    const comm::SwitchBoxShape& sh = fab.shape();
    r.open_section("rsb" + std::to_string(ri));

    // Boxes are read first (section order) but applied last: channel
    // establishment below programs mux selects, so the exact saved box
    // state must overlay afterwards.
    struct BoxState {
      std::vector<comm::Flit> regs, regs_next, outputs;
      std::vector<std::int64_t> selects;
      std::vector<bool> stuck;
      int stuck_events = 0;
    };
    VAPRES_REQUIRE(r.u32() == static_cast<std::uint32_t>(fab.num_boxes()),
                   "restore: switch-box count mismatch");
    std::vector<BoxState> box_states;
    for (int b = 0; b < fab.num_boxes(); ++b) {
      BoxState bs;
      for (int i = 0; i < sh.num_inputs(); ++i) {
        bs.regs.push_back(get_flit());
        bs.regs_next.push_back(get_flit());
      }
      for (int o = 0; o < sh.num_outputs(); ++o) {
        const std::int64_t sel = r.i64();
        VAPRES_REQUIRE(sel >= -1 && sel < sh.num_inputs(),
                       "restore: mux select out of range");
        bs.selects.push_back(sel);
        bs.outputs.push_back(get_flit());
        bs.stuck.push_back(r.boolean());
      }
      bs.stuck_events = static_cast<int>(r.i64());
      box_states.push_back(std::move(bs));
    }

    // IOMs: socket write first (it toggles interface enables), then
    // overlay the raw source/sink state the write may have touched.
    VAPRES_REQUIRE(r.u32() == static_cast<std::uint32_t>(rsb.num_ioms()),
                   "restore: IOM count mismatch");
    for (int ii = 0; ii < rsb.num_ioms(); ++ii) {
      core::Iom& iom = rsb.iom(ii);
      // Direct slave write (not via the DCR bus) so accesses_ stays flat.
      iom.socket().dcr_write(r.u32());
      iom.history_limit_ = r.u64();
      get_fsl(*iom.fsl_to_mb_);
      get_fsl(*iom.fsl_from_mb_);
      VAPRES_REQUIRE(r.u32() ==
                         static_cast<std::uint32_t>(iom.sources_.size()),
                     "restore: IOM source count mismatch");
      for (auto& s : iom.sources_) {
        const bool has_generator = r.boolean();
        VAPRES_REQUIRE(!has_generator || has_sched,
                       "restore: live generator journaled without a "
                       "scheduler section");
        s.interval_cycles = static_cast<int>(r.i64());
        s.next_emit_cycle = r.u64();
        const bool has_pending = r.boolean();
        const comm::Word pending_word = r.u32();
        s.pending = has_pending ? std::optional<comm::Word>(pending_word)
                                : std::nullopt;
        s.words_emitted = r.u64();
        s.stalls = r.u64();
        get_producer(*s.interface);
      }
      VAPRES_REQUIRE(r.u32() == static_cast<std::uint32_t>(iom.sinks_.size()),
                     "restore: IOM sink count mismatch");
      for (auto& k : iom.sinks_) {
        get_consumer(*k.interface);
        k.received = get_words();
        k.words_received = r.u64();
        k.dropped = r.u64();
        k.eos_seen = r.u64();
        k.have_last_arrival = r.boolean();
        k.last_arrival = r.u64();
        k.max_gap = r.u64();
      }
    }

    // PRRs: reload the module (configuration effect), replay the socket,
    // then overlay wrapper/behaviour/interface raw state.
    VAPRES_REQUIRE(r.u32() == static_cast<std::uint32_t>(rsb.num_prrs()),
                   "restore: PRR count mismatch");
    for (int pi = 0; pi < rsb.num_prrs(); ++pi) {
      core::Prr& prr = rsb.prr(pi);
      hwmodule::ModuleWrapper& wr = *prr.wrapper_;
      const bool loaded = r.boolean();
      const std::string loaded_module = r.str();
      const int reconfigurations = static_cast<int>(r.i64());
      const std::uint32_t socket_value = r.u32();
      const std::uint8_t perf_select = r.u8();
      if (loaded) {
        prr.apply_bitstream(bitstream::PartialBitstream::create(
                                loaded_module, prr.name(), prr.rect()),
                            sys->library_);
      }
      // apply_bitstream bumped reconfigurations_ and set loaded_module_;
      // overlay both after so the exact saved values win. A stale name on
      // an unloaded wrapper (blank_prr leaves it) restores here too.
      prr.loaded_module_ = loaded_module;
      prr.reconfigurations_ = reconfigurations;
      prr.socket().dcr_write(socket_value);
      prr.perf_->dcr_write(perf_select);
      wr.phase_ = static_cast<hwmodule::ModuleWrapper::Phase>(r.u8());
      wr.in_reset_ = r.boolean();
      wr.isolated_ = r.boolean();
      wr.words_processed_ = r.u64();
      wr.state_out_ = get_words();
      wr.state_cursor_ = static_cast<std::size_t>(r.u64());
      wr.load_remaining_ = static_cast<int>(r.i64());
      wr.state_in_ = get_words();
      if (loaded) {
        const std::vector<comm::Word> state = get_words();
        const std::vector<comm::Word> extra = get_words();
        hwmodule::ModuleBehavior& b = *wr.behavior_;
        if (!state.empty() || !b.save_state().empty()) {
          b.restore_state(state);
        }
        if (!extra.empty() || !b.snapshot_extra().empty()) {
          b.restore_extra(extra);
        }
      }
      for (const auto& c : prr.consumers_) get_consumer(*c);
      for (const auto& p : prr.producers_) get_producer(*p);
      get_fsl(*prr.fsl_to_mb_);
      get_fsl(*prr.fsl_from_mb_);
    }

    // Channels: re-establish each saved route under its original ids —
    // replaying ChannelManager::establish could pick different lanes than
    // the saved establish/release interleaving did.
    core::ChannelManager& cm = rsb.channels();
    const std::uint32_t n_channels = r.u32();
    for (std::uint32_t i = 0; i < n_channels; ++i) {
      const core::ChannelId id = r.u32();
      comm::RouteSpec spec;
      spec.producer_box = static_cast<int>(r.i64());
      spec.producer_channel = static_cast<int>(r.i64());
      spec.consumer_box = static_cast<int>(r.i64());
      spec.consumer_channel = static_cast<int>(r.i64());
      const std::uint32_t n_lanes = r.u32();
      for (std::uint32_t l = 0; l < n_lanes; ++l) {
        spec.lanes.push_back(static_cast<int>(r.i64()));
      }
      const comm::RouteId route_id = r.u32();
      const auto policy = static_cast<comm::BackpressurePolicy>(r.u8());
      fab.next_route_id_ = route_id;
      const comm::RouteId got = fab.establish(spec, policy);
      VAPRES_REQUIRE(got == route_id, "restore: route id diverged");
      cm.channels_.emplace(id, core::ChannelManager::Entry{route_id, spec});
      for (int seg = 0; seg < spec.segments(); ++seg) {
        cm.lane_table(cm.physical_segment(spec, seg), spec.rightward())
            [static_cast<std::size_t>(spec.lanes[static_cast<std::size_t>(
                seg)])] = true;
      }
      cm.producers_used_.insert(
          core::ChannelEndpoint{spec.producer_box, spec.producer_channel});
      cm.consumers_used_.insert(
          core::ChannelEndpoint{spec.consumer_box, spec.consumer_channel});
      // Feedback-pipeline raw state (establish built it freshly cleared).
      comm::SwitchFabric::FeedbackPipeline& fb =
          fab.routes_.at(route_id).feedback;
      const std::uint32_t n_stages = r.u32();
      VAPRES_REQUIRE(n_stages == static_cast<std::uint32_t>(fb.depth),
                     "restore: feedback depth mismatch");
      fb.stages = 0;
      for (std::uint32_t st = 0; st < n_stages; ++st) {
        if (r.boolean()) fb.stages |= std::uint64_t{1} << st;
      }
      fb.output = r.boolean();
    }
    cm.next_id_ = r.u32();
    fab.next_route_id_ = r.u32();

    // Box overlay last: exact saved registers/selects/outputs win over
    // whatever socket writes and route programming just did.
    for (int b = 0; b < fab.num_boxes(); ++b) {
      const BoxState& bs = box_states[static_cast<std::size_t>(b)];
      for (int i = 0; i < sh.num_inputs(); ++i) {
        const auto k = static_cast<std::size_t>(b * sh.num_inputs() + i);
        fab.regs_[k] = bs.regs[static_cast<std::size_t>(i)];
        fab.regs_next_[k] = bs.regs_next[static_cast<std::size_t>(i)];
      }
      for (int o = 0; o < sh.num_outputs(); ++o) {
        const auto k = static_cast<std::size_t>(b * sh.num_outputs() + o);
        fab.selects_[k] =
            static_cast<int>(bs.selects[static_cast<std::size_t>(o)]);
        fab.out_[k] = bs.outputs[static_cast<std::size_t>(o)];
        fab.stuck_[k] = bs.stuck[static_cast<std::size_t>(o)] ? 1 : 0;
      }
      fab.stuck_events_[static_cast<std::size_t>(b)] = bs.stuck_events;
    }
    // The live-port lists derive from the overlaid selects and latches.
    fab.invalidate_ports();
  }

  // ---- Clock-domain + global-time overlay (after socket CLK writes).
  VAPRES_REQUIRE(domain_states.size() == sys->sim_.domains().size(),
                 "restore: clock-domain count mismatch");
  for (std::size_t i = 0; i < domain_states.size(); ++i) {
    sim::ClockDomain& d = *sys->sim_.domains()[i];
    const DomainState& s = domain_states[i];
    VAPRES_REQUIRE(d.name_ == s.name, "restore: clock-domain order mismatch");
    d.period_ps_ = s.period_ps;
    d.enabled_ = s.enabled;
    d.cycle_count_ = s.cycle_count;
    d.anchor_ps_ = s.anchor_ps;
  }
  sys->sim_.now_ = saved_now;

  // ---- MicroBlaze overlay + busy-wake re-arm.
  {
    proc::Microblaze& mb = *sys->mb_;
    r.open_section("mb");
    mb.busy_pending_ = r.u64();
    mb.busy_anchored_ = r.boolean();
    mb.busy_last_cycle_ = r.u64();
    const bool wake_armed = r.boolean();
    const std::uint64_t wake_delay = r.u64();
    mb.total_busy_cycles_ = r.u64();
    mb.interrupts_serviced_ = r.u64();
    if (wake_armed) {
      // Schedule at the absolute saved remaining delay; arm_busy_wake()
      // assumes an edge-aligned "now", which restore time need not be.
      proc::Microblaze* m = &mb;
      mb.busy_wake_ = sys->sim_.schedule_after(wake_delay, [m] {
        m->busy_wake_.reset();
        m->wake();
      });
      mb.busy_wake_cycle_ = mb.busy_last_cycle_;
    }
  }

  // ---- dcr / icap / reconfig overlay.
  {
    r.open_section("dcr");
    sys->dcr_.accesses_ = r.u64();

    r.open_section("icap");
    VAPRES_REQUIRE(r.f64() == sys->icap_.port_clock_mhz_,
                   "restore: ICAP port clock mismatch");
    sys->icap_.total_bytes_ = r.i64();
    sys->icap_.transfers_ = static_cast<int>(r.i64());
    sys->icap_.corrupted_ = static_cast<int>(r.i64());
    sys->icap_.timed_out_ = static_cast<int>(r.i64());

    core::ReconfigManager& rc = *sys->reconfig_;
    r.open_section("reconfig");
    rc.verify_ = r.boolean();
    rc.policy_.max_attempts = static_cast<int>(r.i64());
    rc.policy_.backoff_base_cycles = r.u64();
    rc.policy_.fallback_to_cf = r.boolean();
    rc.last_.storage_cycles = r.f64();
    rc.last_.icap_cycles = r.f64();
    rc.completed_ = static_cast<int>(r.i64());
    rc.retries_ = static_cast<int>(r.i64());
    rc.fallbacks_ = static_cast<int>(r.i64());
    rc.failures_ = static_cast<int>(r.i64());
  }

  // ---- bitman overlay.
  {
    bitman::BitstreamManager& bm = *sys->bitman_;
    r.open_section("bitman");
    bm.opt_.stage_on_miss = r.boolean();
    bm.opt_.stream_chunk_bytes = r.i64();
    bm.opt_.predict_next = r.boolean();
    bm.stats_.hits = r.u64();
    bm.stats_.misses = r.u64();
    bm.stats_.streamed_misses = r.u64();
    bm.stats_.evictions = r.u64();
    bm.stats_.evicted_bytes = r.i64();
    bm.stats_.staged = r.u64();
    bm.stats_.replaced = r.u64();
    bm.stats_.invalidations = r.u64();
    bm.stats_.prefetch_issued = r.u64();
    bm.stats_.prefetch_completed = r.u64();
    bm.stats_.prefetch_cancelled = r.u64();
    bm.stats_.prefetch_useful = r.u64();
    bm.use_tick_ = r.u64();
    const std::uint32_t n_entries = r.u32();
    for (std::uint32_t i = 0; i < n_entries; ++i) {
      const std::string key = r.str();
      bitman::BitstreamManager::Entry e;
      e.last_use = r.u64();
      e.prefetched = r.boolean();
      e.demand_hit_seen = r.boolean();
      bm.entries_.emplace(key, e);
    }
    const std::uint32_t n_last = r.u32();
    for (std::uint32_t i = 0; i < n_last; ++i) {
      const std::string prr = r.str();
      bm.last_module_[prr] = r.str();
    }
    const std::uint32_t n_next = r.u32();
    for (std::uint32_t i = 0; i < n_next; ++i) {
      const std::string prr = r.str();
      const std::uint32_t n_inner = r.u32();
      auto& table = bm.next_after_[prr];
      for (std::uint32_t j = 0; j < n_inner; ++j) {
        const std::string last = r.str();
        table[last] = r.str();
      }
    }
  }

  // ---- fault injector overlay (process-wide hub).
  {
    sim::FaultInjector& fi = sim::FaultInjector::instance();
    r.open_section("fault");
    fi.enabled_ = r.boolean();
    fi.rng_.set_state(r.u64());
    for (auto& sp : fi.sites_) {
      sp.probability = r.f64();
      sp.armed_at = r.u64();
      sp.armed_count = r.u64();
      sp.opportunities = r.u64();
      sp.injected = r.u64();
    }
    for (auto& rec : fi.recoveries_) rec = r.u64();
  }

  // ---- metrics registry overlay, last: earlier restore steps must not
  // disturb the values (they don't touch the registry, but ordering makes
  // that obvious). reset() keeps registrations and zeroes values; the
  // blob only carries nonzero entries.
  {
    obs::Registry& reg = obs::Registry::instance();
    reg.reset();
    r.open_section("obs");
    const std::uint32_t n_counters = r.u32();
    for (std::uint32_t i = 0; i < n_counters; ++i) {
      const std::string name = r.str();
      reg.counter(name).add(r.u64());
    }
    const std::uint32_t n_gauges = r.u32();
    for (std::uint32_t i = 0; i < n_gauges; ++i) {
      const std::string name = r.str();
      reg.gauge(name).set(r.i64());
    }
    const std::uint32_t n_hists = r.u32();
    for (std::uint32_t i = 0; i < n_hists; ++i) {
      obs::Histogram& h = reg.histogram(r.str());
      for (auto& b : h.buckets_) b = r.u64();
      h.count_ = r.u64();
      h.sum_ = r.u64();
      h.min_ = r.u64();
      h.max_ = r.u64();
    }
  }

  // ---- Wake everything: the first post-restore tick re-evaluates all
  // activity flags, so nothing sleeps through state it should act on.
  for (const auto& d : sys->sim_.domains()) {
    for (sim::Clocked* c : d->components_) {
      if (c != nullptr) c->wake();
    }
  }

  return sys;
}

// ---------------------------------------------------------------------------
// scheduler restore (cold path, over a just-restored system)
// ---------------------------------------------------------------------------

namespace {

struct SchedJournal {
  sched::ApplicationScheduler::Options opt;
  int first_id = 0;
  int preemptions = 0;
  int defrag_migrations = 0;
  int migration_rollbacks = 0;
  int retired_admitted = 0;
  int retired_admitted_after_defrag = 0;
  int retired_admitted_after_preempt = 0;
  int retired_rejected = 0;
  struct Slot {
    bool free = true;
    int app_id = -1;
    int chain_pos = -1;
    std::string module_id;
    int module_slices = 0;
    bool migratable = false;
  };
  std::vector<Slot> slots;
  std::vector<std::vector<bool>> source_busy;
  std::vector<std::vector<bool>> sink_busy;
  struct Record {
    sched::AppRecord rec;
    bool generator_live = false;
  };
  std::vector<Record> records;
};

SchedJournal read_sched_section(const SnapshotReader& r) {
  SchedJournal j;
  r.open_section("sched");
  j.opt.rsb_index = static_cast<int>(r.i64());
  j.opt.policy = static_cast<sched::PlacementPolicy>(r.u8());
  j.opt.enable_defrag = r.boolean();
  j.opt.enable_preemption = r.boolean();
  j.opt.max_defrag_migrations = static_cast<int>(r.i64());
  j.opt.source = static_cast<core::ReconfigSource>(r.u8());
  j.opt.prefetch_hints = r.boolean();
  j.first_id = static_cast<int>(r.i64());
  j.preemptions = static_cast<int>(r.i64());
  j.defrag_migrations = static_cast<int>(r.i64());
  j.migration_rollbacks = static_cast<int>(r.i64());
  j.retired_admitted = static_cast<int>(r.i64());
  j.retired_admitted_after_defrag = static_cast<int>(r.i64());
  j.retired_admitted_after_preempt = static_cast<int>(r.i64());
  j.retired_rejected = static_cast<int>(r.i64());
  const std::uint32_t n_slots = r.u32();
  for (std::uint32_t i = 0; i < n_slots; ++i) {
    SchedJournal::Slot s;
    s.free = r.boolean();
    s.app_id = static_cast<int>(r.i64());
    s.chain_pos = static_cast<int>(r.i64());
    s.module_id = r.str();
    s.module_slices = static_cast<int>(r.i64());
    s.migratable = r.boolean();
    j.slots.push_back(std::move(s));
  }
  const auto get_busy = [&r]() {
    std::vector<std::vector<bool>> t;
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::vector<bool> row;
      const std::uint32_t m = r.u32();
      for (std::uint32_t k = 0; k < m; ++k) row.push_back(r.boolean());
      t.push_back(std::move(row));
    }
    return t;
  };
  j.source_busy = get_busy();
  j.sink_busy = get_busy();
  const std::uint32_t n_records = r.u32();
  for (std::uint32_t i = 0; i < n_records; ++i) {
    SchedJournal::Record entry;
    sched::AppRecord& rec = entry.rec;
    rec.id = static_cast<int>(r.i64());
    rec.request.name = r.str();
    const std::uint32_t n_modules = r.u32();
    for (std::uint32_t m = 0; m < n_modules; ++m) {
      rec.request.modules.push_back(r.str());
    }
    rec.request.priority = static_cast<int>(r.i64());
    rec.request.source_interval_cycles = static_cast<int>(r.i64());
    rec.request.source_words = r.u64();
    rec.state = static_cast<sched::AppState>(r.u8());
    rec.verdict = static_cast<sched::AdmissionVerdict>(r.u8());
    rec.reject_reason = r.str();
    rec.source.iom = static_cast<int>(r.i64());
    rec.source.channel = static_cast<int>(r.i64());
    rec.sink.iom = static_cast<int>(r.i64());
    rec.sink.channel = static_cast<int>(r.i64());
    const std::uint32_t n_prrs = r.u32();
    for (std::uint32_t p = 0; p < n_prrs; ++p) {
      rec.prrs.push_back(static_cast<int>(r.i64()));
    }
    const std::uint32_t n_channels = r.u32();
    for (std::uint32_t c = 0; c < n_channels; ++c) {
      rec.channels.push_back(r.u32());
    }
    const std::uint32_t n_clocks = r.u32();
    for (std::uint32_t c = 0; c < n_clocks; ++c) {
      rec.clocks_mhz.push_back(r.f64());
    }
    rec.submitted_at = r.u64();
    rec.launched_at = r.u64();
    rec.stopped_at = r.u64();
    rec.admission_mb_cycles = r.u64();
    rec.base_words_emitted = r.u64();
    rec.base_words_received = r.u64();
    rec.final_words_in = r.u64();
    rec.final_words_out = r.u64();
    rec.migrations = static_cast<int>(r.i64());
    entry.generator_live = r.boolean();
    j.records.push_back(std::move(entry));
  }
  return j;
}

}  // namespace

std::unique_ptr<sched::ApplicationScheduler> SystemSnapshot::restore_scheduler(
    const std::string& blob, core::VapresSystem& sys) {
  const SnapshotReader r(blob);
  VAPRES_REQUIRE(r.has_section("sched"),
                 "restore_scheduler: no scheduler section in snapshot");
  const SchedJournal j = read_sched_section(r);

  auto sched = std::make_unique<sched::ApplicationScheduler>(sys, j.opt);
  sched->first_id_ = j.first_id;
  sched->preemptions_ = j.preemptions;
  sched->defrag_migrations_ = j.defrag_migrations;
  sched->migration_rollbacks_ = j.migration_rollbacks;
  sched->retired_admitted_ = j.retired_admitted;
  sched->retired_admitted_after_defrag_ = j.retired_admitted_after_defrag;
  sched->retired_admitted_after_preempt_ = j.retired_admitted_after_preempt;
  sched->retired_rejected_ = j.retired_rejected;

  VAPRES_REQUIRE(static_cast<int>(j.slots.size()) == sched->map_.num_slots(),
                 "restore_scheduler: fabric-map size mismatch");
  for (std::size_t p = 0; p < j.slots.size(); ++p) {
    const SchedJournal::Slot& s = j.slots[p];
    if (!s.free) {
      sched->map_.occupy(static_cast<int>(p), s.app_id, s.chain_pos,
                         s.module_id, s.module_slices, s.migratable);
    }
  }
  sched->source_busy_ = j.source_busy;
  sched->sink_busy_ = j.sink_busy;

  // Re-install each running app's counting source generator with its
  // remaining word budget — the exact closure the scheduler installs at
  // launch, resumed at word n0. Assigned directly (not via
  // set_source_generator, which would reset pending/next_emit_cycle).
  core::Rsb& rsb = sys.rsb(j.opt.rsb_index);
  for (const SchedJournal::Record& entry : j.records) {
    sched->apps_.push_back(entry.rec);
    if (entry.rec.running() && entry.generator_live) {
      const sched::AppRecord& rec = entry.rec;
      core::Iom& iom = rsb.iom(rec.source.iom);
      auto& src = iom.sources_[static_cast<std::size_t>(rec.source.channel)];
      const std::uint64_t limit = rec.request.source_words;
      const std::uint64_t n0 = (src.words_emitted - rec.base_words_emitted) +
                               (src.pending.has_value() ? 1 : 0);
      src.generator = [n = n0, limit]() mutable -> std::optional<comm::Word> {
        if (limit > 0 && n >= limit) return std::nullopt;
        // Mask below the all-ones EOS word so data is never EOS.
        return static_cast<comm::Word>((n++) & 0x7FFFFFFFu);
      };
      iom.wake();
    }
  }
  return sched;
}

// ---------------------------------------------------------------------------
// warm restart
// ---------------------------------------------------------------------------

WarmRestart SystemSnapshot::warm_restart(const std::string& blob,
                                         core::VapresSystem& sys) {
  const SnapshotReader r(blob);
  WarmRestart out;
  VAPRES_REQUIRE(r.has_section("sched"),
                 "warm_restart: no scheduler journal in snapshot");
  const SchedJournal j = read_sched_section(r);

  // ---- Switch journal (optional): read before reconciling so adopted
  // apps can map journaled channel ids across a completed re-route.
  struct SwitchJournal {
    core::SwitchRequest req;
    core::ModuleSwitcher::State state = core::ModuleSwitcher::State::kIdle;
    core::ModuleSwitcher::Timeline timeline;
    bool reconfig_ok = true;
    std::vector<comm::Word> collected_state;
    std::vector<comm::Word> monitoring;
    bool saw_header = false;
    int expected_words = -1;
    core::ChannelId new_upstream = 0;
    core::ChannelId new_downstream = 0;
  };
  std::optional<SwitchJournal> sw;
  if (r.has_section("switch")) {
    SwitchJournal s;
    r.open_section("switch");
    s.req.rsb_index = static_cast<int>(r.i64());
    s.req.src_prr = static_cast<int>(r.i64());
    s.req.dst_prr = static_cast<int>(r.i64());
    s.req.new_module_id = r.str();
    s.req.upstream = r.u32();
    s.req.downstream = r.u32();
    s.req.eos_iom = static_cast<int>(r.i64());
    s.req.source = static_cast<core::ReconfigSource>(r.u8());
    s.state = static_cast<core::ModuleSwitcher::State>(r.u8());
    s.timeline.started = r.u64();
    s.timeline.reconfig_done = r.u64();
    s.timeline.input_rerouted = r.u64();
    s.timeline.state_collected = r.u64();
    s.timeline.module_initialized = r.u64();
    s.timeline.iom_eos_seen = r.u64();
    s.timeline.completed = r.u64();
    s.timeline.aborted = r.u64();
    const bool reconfig_complete = r.boolean();
    (void)reconfig_complete;  // resume sets it per protocol state
    s.reconfig_ok = r.boolean();
    const auto get_words = [&r]() {
      std::vector<comm::Word> v;
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.u32());
      return v;
    };
    s.collected_state = get_words();
    s.monitoring = get_words();
    s.saw_header = r.boolean();
    s.expected_words = static_cast<int>(r.i64());
    s.new_upstream = r.u32();
    s.new_downstream = r.u32();
    sw = std::move(s);
  }

  // Channel substitution: a crash after a re-route leaves journaled app
  // records naming the pre-switch channel while the fabric carries the
  // re-routed one.
  std::map<core::ChannelId, core::ChannelId> subst;
  if (sw.has_value()) {
    if (sw->new_upstream != 0) subst[sw->req.upstream] = sw->new_upstream;
    if (sw->new_downstream != 0) {
      subst[sw->req.downstream] = sw->new_downstream;
    }
  }

  // ---- Fresh scheduler over the live fabric; adopt matching records.
  auto sched = std::make_unique<sched::ApplicationScheduler>(sys, j.opt);
  sched->first_id_ = j.first_id;
  sched->preemptions_ = j.preemptions;
  sched->defrag_migrations_ = j.defrag_migrations;
  sched->migration_rollbacks_ = j.migration_rollbacks;
  sched->retired_admitted_ = j.retired_admitted;
  sched->retired_admitted_after_defrag_ = j.retired_admitted_after_defrag;
  sched->retired_admitted_after_preempt_ = j.retired_admitted_after_preempt;
  sched->retired_rejected_ = j.retired_rejected;

  core::Rsb& rsb = sys.rsb(j.opt.rsb_index);
  for (const SchedJournal::Record& entry : j.records) {
    sched::AppRecord rec = entry.rec;
    if (!rec.running()) {
      sched->apps_.push_back(std::move(rec));
      continue;
    }
    // Verify the journal against the live fabric: every placed module
    // must still occupy its PRR, every channel must still be routed.
    bool match = true;
    std::string why;
    for (std::size_t pos = 0; pos < rec.prrs.size(); ++pos) {
      core::Prr& prr = rsb.prr(rec.prrs[pos]);
      if (!prr.occupied() || prr.loaded_module() != rec.request.modules[pos]) {
        match = false;
        why = "PRR " + prr.name() + " no longer hosts " +
              rec.request.modules[pos];
        break;
      }
    }
    int live_channels = 0;
    if (match) {
      for (core::ChannelId& ch : rec.channels) {
        const auto it = subst.find(ch);
        if (it != subst.end()) ch = it->second;  // adopt re-routed id
        if (!rsb.channels().active(ch)) {
          match = false;
          why = "channel " + std::to_string(ch) + " is not routed";
          break;
        }
        ++live_channels;
      }
    }
    if (match) {
      for (std::size_t pos = 0; pos < rec.prrs.size(); ++pos) {
        const int p = rec.prrs[pos];
        const SchedJournal::Slot& slot =
            j.slots[static_cast<std::size_t>(p)];
        // Journaled slot metadata for this PRR, keyed by the owning app.
        if (!slot.free && slot.app_id == rec.id) {
          sched->map_.occupy(p, slot.app_id, slot.chain_pos, slot.module_id,
                             slot.module_slices, slot.migratable);
        } else {
          sched->map_.occupy(p, rec.id, static_cast<int>(pos),
                             rec.request.modules[pos], 0, false);
        }
      }
      sched->source_busy_[static_cast<std::size_t>(rec.source.iom)]
                         [static_cast<std::size_t>(rec.source.channel)] = true;
      sched->sink_busy_[static_cast<std::size_t>(rec.sink.iom)]
                       [static_cast<std::size_t>(rec.sink.channel)] = true;
      ++out.report.adopted_apps;
      out.report.adopted_channels += live_channels;
      out.report.notes.push_back("adopted app " + std::to_string(rec.id) +
                                 " (" + rec.request.name + ")");
    } else {
      // The fabric contradicts the journal: downgrade, never reset the
      // fabric side — whatever stream still flows there keeps flowing.
      rec.state = sched::AppState::kStopped;
      rec.reject_reason = "warm-restart mismatch: " + why;
      ++out.report.mismatches;
      out.report.notes.push_back("downgraded app " + std::to_string(rec.id) +
                                 ": " + why);
    }
    const bool adopted = match;
    const bool generator_live = entry.generator_live;
    sched->apps_.push_back(std::move(rec));
    if (adopted && generator_live) {
      // The fabric survived, so the generator closure is already running
      // inside the live IOM — nothing to re-install on warm restart.
      (void)generator_live;
    }
  }

  // ---- In-flight switch: resume from the journaled step, or roll back.
  if (sw.has_value()) {
    using St = core::ModuleSwitcher::State;
    core::Rsb& srsb = sys.rsb(sw->req.rsb_index);
    if (sw->state == St::kReconfiguring) {
      // The crash interrupted step 3: the new module is still outside the
      // processing path (no channel moved yet), so rollback is the safe
      // default — let any in-flight PR land, then discard its effect.
      sys.drain_transfer_path();
      core::Prr& dst = srsb.prr(sw->req.dst_prr);
      if (dst.wrapper().loaded()) dst.wrapper().unload();
      dst.loaded_module_.clear();
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
          sw->req.new_module_id + ")");
    } else if (sw->state == St::kDone || sw->state == St::kAborted ||
               sw->state == St::kIdle) {
      out.report.notes.push_back("journaled switch already terminal");
    } else {
      // Steps 4-9: the PR completed before the crash; rebuild an
      // equivalent in-flight switcher and let it finish the protocol.
      auto resumed = std::make_unique<core::ModuleSwitcher>(sys, sw->req);
      resumed->state_ = sw->state;
      resumed->timeline_ = sw->timeline;
      resumed->reconfig_complete_ = true;
      resumed->reconfig_ok_ = sw->reconfig_ok;
      resumed->collected_state_ = sw->collected_state;
      resumed->monitoring_ = sw->monitoring;
      resumed->saw_header_ = sw->saw_header;
      resumed->expected_words_ = sw->expected_words;
      resumed->new_upstream_ = sw->new_upstream;
      resumed->new_downstream_ = sw->new_downstream;
      resumed->obs_track_ = obs::EventBus::instance().track(
          srsb.prr(sw->req.src_prr).name() + ".switch");
      resumed->enter_step(step_code_for(sw->state));
      sys.mb().add_task(resumed.get());
      out.report.switch_resumed = true;
      out.report.notes.push_back("resumed in-flight switch at step " +
                                 std::to_string(step_code_for(sw->state)));
      out.switcher = std::move(resumed);
    }
  }

  out.scheduler = std::move(sched);
  return out;
}

}  // namespace vapres::snap
