#include "core/switching.hpp"

#include "bitstream/bitgen.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"
#include "sim/fault.hpp"

namespace vapres::core {

namespace ctrl = hwmodule::ctrl;

ModuleSwitcher::ModuleSwitcher(VapresSystem& sys, SwitchRequest req)
    : sys_(sys), req_(std::move(req)) {
  VAPRES_REQUIRE(req_.src_prr != req_.dst_prr,
                 "switching needs a spare PRR distinct from the source");
  VAPRES_REQUIRE(sys_.library().contains(req_.new_module_id),
                 "unknown module: " + req_.new_module_id);
}

int ModuleSwitcher::resume_journaled() {
  std::uint16_t code = 0;
  switch (state_) {
    case State::kQuiesceUpstream:   code = obs::ev::kStep2QuiesceUpstream; break;
    case State::kRerouteUpstream:   code = obs::ev::kStep3RerouteUpstream; break;
    case State::kSendFlush:         code = obs::ev::kStep4SendFlush; break;
    case State::kCollectState:      code = obs::ev::kStep5CollectState; break;
    case State::kInitNewModule:     code = obs::ev::kStep6InitNewModule; break;
    case State::kWaitIomEos:        code = obs::ev::kStep7WaitIomEos; break;
    case State::kQuiesceSrc:        code = obs::ev::kStep8QuiesceSrc; break;
    case State::kRerouteDownstream: code = obs::ev::kStep9RerouteDownstream; break;
    default:
      VAPRES_REQUIRE(false, "resume: journaled switch is not past its PR");
  }
  reconfig_complete_ = true;
  obs_track_ = obs::EventBus::instance().track(
      rsb().prr(req_.src_prr).name() + ".switch");
  enter_step(code);
  sys_.mb().add_task(this);
  return code;
}

void ModuleSwitcher::close_step() {
  if (!step_span_.open()) return;
  obs::Histogram& hist = obs::Registry::instance().histogram(
      std::string("switch.") +
      obs::event_name(obs::Subsystem::kSwitch, step_code_) + ".cycles");
  step_span_.end(sys_.sim().now(), &hist,
                 static_cast<std::int64_t>(sys_.mb().cycle() -
                                           step_begin_cycle_));
}

void ModuleSwitcher::enter_step(std::uint16_t code) {
  close_step();
  step_code_ = code;
  step_begin_cycle_ = sys_.mb().cycle();
  step_span_ = obs::Span::begin(obs::Subsystem::kSwitch, code, obs_track_,
                                sys_.sim().now(),
                                static_cast<std::uint64_t>(req_.dst_prr));
}

void ModuleSwitcher::begin() {
  VAPRES_REQUIRE(state_ == State::kIdle, "switcher already started");
  Rsb& r = rsb();
  VAPRES_REQUIRE(r.channels().active(req_.upstream) &&
                     r.channels().active(req_.downstream),
                 "switch request channels are not active");

  // A background prefetch staging may hold the blocking transfer path;
  // let it finish before the switch claims the driver.
  sys_.drain_transfer_path();

  timeline_.started = sys_.mb().cycle();
  reconfig_complete_ = false;
  reconfig_ok_ = true;

  // Step 3: reconfigure the spare PRR while the stream keeps flowing.
  auto on_done = [this](const ReconfigOutcome& outcome) {
    reconfig_complete_ = true;
    reconfig_ok_ = outcome.ok();
  };
  const std::string dst_name = r.prr(req_.dst_prr).name();
  switch (req_.source) {
    case ReconfigSource::kSdramArray:
    case ReconfigSource::kManaged:
      // Resolve through the bitman cache: warm arrays take the fast
      // array2icap path (pinned against eviction for the transfer),
      // cold pairs stream from CompactFlash.
      sys_.bitman().reconfigure(req_.new_module_id, dst_name, on_done);
      break;
    case ReconfigSource::kCfStream:
      sys_.reconfig().cf2icap_streamed(
          bitstream::bitstream_filename(req_.new_module_id, dst_name),
          bitstream::Calibration::kStreamChunkBytes, on_done);
      break;
    case ReconfigSource::kCompactFlash:
      sys_.reconfig().cf2icap(
          bitstream::bitstream_filename(req_.new_module_id, dst_name),
          on_done);
      break;
  }
  state_ = State::kReconfiguring;
  obs_track_ = obs::EventBus::instance().track(
      r.prr(req_.src_prr).name() + ".switch");
  enter_step(obs::ev::kStep1Reconfigure);
  sys_.mb().add_task(this);
}

void ModuleSwitcher::reroute(ChannelId old_channel,
                             ChannelEndpoint new_producer,
                             ChannelEndpoint new_consumer, ChannelId& out,
                             proc::Microblaze& mb, bool enable_producer) {
  Rsb& r = rsb();
  r.channels().release(old_channel);
  auto id = r.channels().establish(new_producer, new_consumer);
  VAPRES_REQUIRE(id.has_value(),
                 "re-route failed: no free lanes for the new channel");
  out = *id;
  // Charge the PRSocket writes software performs to program the path.
  const auto& spec = r.channels().spec(out);
  mb.busy_for(static_cast<sim::Cycles>(
      ChannelManager::dcr_writes_for(spec) * comm::DcrBus::kBridgeAccessCycles));
  sys_.socket_set_bits(r.socket_address(new_consumer.box),
                       PrSocket::kFifoWen, true);
  if (enable_producer) {
    sys_.socket_set_bits(r.socket_address(new_producer.box),
                         PrSocket::kFifoRen, true);
  }
}

bool ModuleSwitcher::step(proc::Microblaze& mb) {
  Rsb& r = rsb();
  switch (state_) {
    case State::kIdle:
      return false;

    case State::kReconfiguring: {
      if (!reconfig_complete_) return false;
      if (!reconfig_ok_) {
        // The PR of the spare PRR failed permanently. Nothing was
        // re-routed yet — the new module was never on the processing path
        // — so rollback is: leave every channel and the source module
        // exactly as they are and walk away. The stream never noticed.
        sim::FaultInjector::instance().note_recovery(
            sim::RecoveryEvent::kSwitchRollback);
        timeline_.aborted = mb.cycle();
        close_step();
        obs::EventBus::instance().instant(
            obs::Subsystem::kSwitch, obs::ev::kSwitchRollback, obs_track_,
            sys_.sim().now(), static_cast<std::uint64_t>(req_.dst_prr));
        obs::Registry::instance().counter("switch.rollbacks").add();
        state_ = State::kAborted;
        return true;  // task finished; source path untouched
      }
      timeline_.reconfig_done = mb.cycle();
      // Bring up the dst site with the module held in reset: slice macros
      // on, clock on, consumer writes accepted, PRR_reset asserted.
      const comm::DcrAddress dst = r.prr_socket_address(req_.dst_prr);
      mb.dcr_write(dst, mb.dcr_read(dst) | PrSocket::kSmEn |
                            PrSocket::kClkEn | PrSocket::kFifoWen |
                            PrSocket::kPrrReset);
      // Step 4 begins: stop the upstream producer draining so in-flight
      // words land before the muxes change.
      const auto& up = r.channels().spec(req_.upstream);
      const comm::DcrAddress up_sock = r.socket_address(up.producer_box);
      mb.dcr_write(up_sock, mb.dcr_read(up_sock) & ~PrSocket::kFifoRen);
      mb.busy_for(static_cast<sim::Cycles>(up.hops()) + 4);
      state_ = State::kQuiesceUpstream;
      enter_step(obs::ev::kStep2QuiesceUpstream);
      return false;
    }

    case State::kQuiesceUpstream: {
      // Pipeline is flushed (the busy_for above elapsed).
      state_ = State::kRerouteUpstream;
      enter_step(obs::ev::kStep3RerouteUpstream);
      return false;
    }

    case State::kRerouteUpstream: {
      const comm::RouteSpec up = r.channels().spec(req_.upstream);
      reroute(req_.upstream,
              ChannelEndpoint{up.producer_box, up.producer_channel},
              r.prr_consumer(req_.dst_prr), new_upstream_, mb,
              /*enable_producer=*/true);
      timeline_.input_rerouted = mb.cycle();
      state_ = State::kSendFlush;
      enter_step(obs::ev::kStep4SendFlush);
      return false;
    }

    case State::kSendFlush: {
      // Step 5: tell the old module to drain and emit the EOS word.
      comm::FslLink& t = r.prr(req_.src_prr).fsl_from_mb();
      if (!t.can_write()) return false;
      t.write(ctrl::kCmdFlush);
      mb.busy_for(1);
      saw_header_ = false;
      expected_words_ = -1;
      state_ = State::kCollectState;
      enter_step(obs::ev::kStep5CollectState);
      return false;
    }

    case State::kCollectState: {
      // Step 6: read the [STATE_HEADER, count, words...] frame, skipping
      // monitoring words that were already queued on the r-link.
      comm::FslLink& rl = r.prr(req_.src_prr).fsl_to_mb();
      while (auto w = rl.try_read()) {
        mb.busy_for(1);
        if (!saw_header_) {
          if (*w == ctrl::kStateHeader) {
            saw_header_ = true;
          } else if (*w != ctrl::kEosSentNote) {
            monitoring_.push_back(*w);
          }
        } else if (expected_words_ < 0) {
          expected_words_ = static_cast<int>(*w);
        } else {
          collected_state_.push_back(*w);
        }
        if (saw_header_ && expected_words_ >= 0 &&
            static_cast<int>(collected_state_.size()) == expected_words_) {
          timeline_.state_collected = mb.cycle();
          state_ = State::kInitNewModule;
          enter_step(obs::ev::kStep6InitNewModule);
          return false;
        }
      }
      return false;
    }

    case State::kInitNewModule: {
      // Step 7: queue the LOAD_STATE frame, then release the reset. The
      // wrapper reads the frame before letting the module fire, so the
      // module never processes data with pre-restore state.
      comm::FslLink& t = r.prr(req_.dst_prr).fsl_from_mb();
      VAPRES_REQUIRE(t.capacity() - t.occupancy() >=
                         static_cast<int>(collected_state_.size()) + 2,
                     "dst t-link cannot hold the state frame");
      t.write(ctrl::kCmdLoadState);
      t.write(static_cast<comm::Word>(collected_state_.size()));
      for (comm::Word w : collected_state_) t.write(w);
      mb.busy_for(static_cast<sim::Cycles>(collected_state_.size()) + 2);
      const comm::DcrAddress dst = r.prr_socket_address(req_.dst_prr);
      mb.dcr_write(dst, mb.dcr_read(dst) & ~PrSocket::kPrrReset);
      timeline_.module_initialized = mb.cycle();
      state_ = State::kWaitIomEos;
      enter_step(obs::ev::kStep7WaitIomEos);
      return false;
    }

    case State::kWaitIomEos: {
      // Step 8: the IOM reports the EOS word on its r-link.
      comm::FslLink& rl = r.iom(req_.eos_iom).fsl_to_mb();
      while (auto w = rl.try_read()) {
        mb.busy_for(1);
        if (*w == kIomEosDetected) {
          timeline_.iom_eos_seen = mb.cycle();
          // Step 9 begins: quiesce the old module's producer.
          const auto& down = r.channels().spec(req_.downstream);
          const comm::DcrAddress src_sock =
              r.socket_address(down.producer_box);
          mb.dcr_write(src_sock,
                       mb.dcr_read(src_sock) & ~PrSocket::kFifoRen);
          mb.busy_for(static_cast<sim::Cycles>(down.hops()) + 4);
          state_ = State::kQuiesceSrc;
          enter_step(obs::ev::kStep8QuiesceSrc);
          return false;
        }
      }
      return false;
    }

    case State::kQuiesceSrc:
      state_ = State::kRerouteDownstream;
      enter_step(obs::ev::kStep9RerouteDownstream);
      return false;

    case State::kRerouteDownstream: {
      const comm::RouteSpec down = r.channels().spec(req_.downstream);
      reroute(req_.downstream, r.prr_producer(req_.dst_prr),
              ChannelEndpoint{down.consumer_box, down.consumer_channel},
              new_downstream_, mb, /*enable_producer=*/true);
      // Shut the old module's site down: isolate and gate its clock.
      const comm::DcrAddress src = r.prr_socket_address(req_.src_prr);
      mb.dcr_write(src, mb.dcr_read(src) &
                            ~(PrSocket::kSmEn | PrSocket::kClkEn |
                              PrSocket::kFifoWen | PrSocket::kFifoRen));
      timeline_.completed = mb.cycle();
      close_step();
      obs::Registry::instance().counter("switch.completed").add();
      obs::Registry::instance()
          .histogram("switch.total.cycles")
          .record(timeline_.completed - timeline_.started);
      state_ = State::kDone;
      return true;  // task finished; MicroBlaze descheduules it
    }

    case State::kDone:
    case State::kAborted:
      return true;
  }
  return false;
}

}  // namespace vapres::core
