// Application requests for the runtime multi-application scheduler.
//
// The scheduler's unit of work is a *streaming application*: a linear
// pipeline of library modules fed by an IOM source channel and drained by
// an IOM sink channel (iom -> m1 -> ... -> mk -> iom), with a priority
// class and a stream rate. Linear chains keep the hitless 9-step
// switching methodology applicable for relocation (the EOS word of a
// draining tail module is observable at the sink IOM); general DAGs
// still run through core::RuntimeAssembler outside the scheduler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/assembler.hpp"
#include "core/channel.hpp"
#include "sim/time.hpp"

namespace vapres::sched {

/// One application request, submitted to the scheduler's queue.
struct AppRequest {
  std::string name;
  /// Module chain in stream order (front consumes the source stream).
  std::vector<std::string> modules;
  /// Higher priorities may preempt lower ones under contention.
  int priority = 1;
  /// The external source produces one word per this many system cycles
  /// (the stream-rate class; feeds the RateAnalyzer feasibility check).
  int source_interval_cycles = 4;
  /// Words the source emits before ending the stream; 0 = unbounded.
  std::uint64_t source_words = 0;

  /// The request as a KPN spec against the given IOM endpoints, for
  /// validation and rate analysis (flow::RateAnalyzer::analyze).
  core::KpnAppSpec to_kpn(int source_iom, int sink_iom) const;

  /// Node name of chain position `i` in the to_kpn() spec.
  static std::string node_name(int i) { return "n" + std::to_string(i); }
};

/// Snapshot fields (snap/format.hpp).
template <class Ar>
void visit(Ar& ar, AppRequest& r) {
  ar(r.name, r.modules, r.priority, r.source_interval_cycles, r.source_words);
}

/// Where an admission attempt ended up.
enum class AdmissionVerdict {
  kPending = 0,            ///< still queued, not yet decided
  kAdmitted,               ///< placed directly onto free PRRs
  kAdmittedAfterDefrag,    ///< placed after live-module relocation
  kAdmittedAfterPreempt,   ///< placed after evicting lower priority
  kRejectedBadSpec,        ///< unknown module / inconsistent rates
  kRejectedRateInfeasible, ///< no PRR clock satisfies the stream rate
  kRejectedNoIomChannel,   ///< all IOM source or sink channels busy
  kRejectedNoPrrFit,       ///< some module fits no PRR of the fabric
  kRejectedFragmented,     ///< capacity exists, defrag could not free it
  kRejectedNoRoute,        ///< switch-box lane capacity exhausted
  kRejectedPrFailure,      ///< permanent PR failure while launching
};
constexpr AdmissionVerdict enum_last(AdmissionVerdict) {
  return AdmissionVerdict::kRejectedPrFailure;
}

const char* verdict_name(AdmissionVerdict v);

/// Lifecycle of a submitted application.
enum class AppState {
  kQueued,     ///< submitted, awaiting admission
  kRunning,    ///< launched and streaming
  kRejected,   ///< admission failed (see verdict)
  kPreempted,  ///< was running, evicted for a higher-priority app
  kStopped,    ///< stopped via ApplicationScheduler::stop
};
constexpr AppState enum_last(AppState) { return AppState::kStopped; }

const char* state_name(AppState s);

/// One IOM producer or consumer channel, as allocated to an app.
struct IomChannelRef {
  int iom = 0;
  int channel = 0;
};

template <class Ar>
void visit(Ar& ar, IomChannelRef& c) {
  ar(c.iom, c.channel);
}

/// Scheduler-side record of one submitted application.
struct AppRecord {
  int id = -1;
  AppRequest request;
  AppState state = AppState::kQueued;
  AdmissionVerdict verdict = AdmissionVerdict::kPending;
  std::string reject_reason;  ///< human-readable detail on rejection

  IomChannelRef source;  ///< IOM producer channel feeding the chain
  IomChannelRef sink;    ///< IOM consumer channel draining the chain
  /// PRR index per chain position (placement), valid while running.
  std::vector<int> prrs;
  /// Streaming channels, chain order: source->m1, m1->m2, ..., mk->sink.
  std::vector<core::ChannelId> channels;
  /// Local clock chosen per chain position by the rate analysis (MHz).
  std::vector<double> clocks_mhz;

  sim::Cycles submitted_at = 0;
  sim::Cycles launched_at = 0;
  sim::Cycles stopped_at = 0;
  /// MicroBlaze cycles the admission decision + launch of this app cost.
  sim::Cycles admission_mb_cycles = 0;

  /// IOM counters at launch (the channels are reused across apps).
  std::uint64_t base_words_emitted = 0;
  std::uint64_t base_words_received = 0;
  /// Final word counts, captured when the app stops / is preempted.
  std::uint64_t final_words_in = 0;
  std::uint64_t final_words_out = 0;

  int migrations = 0;  ///< live relocations this app survived

  bool running() const { return state == AppState::kRunning; }
};

/// Snapshot fields (snap/format.hpp).
template <class Ar>
void visit(Ar& ar, AppRecord& r) {
  ar(r.id, r.request, r.state, r.verdict, r.reject_reason, r.source, r.sink,
     r.prrs, r.channels, r.clocks_mhz, r.submitted_at, r.launched_at,
     r.stopped_at, r.admission_mb_cycles, r.base_words_emitted,
     r.base_words_received, r.final_words_in, r.final_words_out,
     r.migrations);
}

}  // namespace vapres::sched
