// I/O module (IOM).
//
// IOMs live in the static region and bridge external pins/peripherals
// (ADCs, DACs) to the RSB fabric (Section III.B). An IOM exposes the
// full ko producer / ki consumer channels of its switch box (Figure 7):
// each producer channel has a *source* half injecting words at a
// configurable rate (an external input stream), each consumer channel a
// *sink* half draining words (an external output). Sinks detect the
// end-of-stream word at channel width and inform the MicroBlaze over the
// r-link (Figure 5, step 8), and keep arrival-gap statistics — the
// measurement behind the "no stream-processing interruption" claim.
//
// EOS is in-band by design (as in the paper): an application data word
// of all ones is indistinguishable from the end-of-stream marker.
//
// The source/sink halves run in the static region, clocked by the RSB's
// switch fabric right after the IOM's own interfaces (comm::EndpointLogic).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/fsl.hpp"
#include "comm/module_interface.hpp"
#include "comm/switch_fabric.hpp"
#include "core/params.hpp"
#include "core/prsocket.hpp"
#include "sim/clock.hpp"

namespace vapres::core {

/// Message the IOM writes on its r-link when it sees the end-of-stream
/// word (Figure 5, step 8).
inline constexpr comm::Word kIomEosDetected = 0xC0DE0005u;

class Iom final : public comm::EndpointLogic {
 public:
  Iom(std::string name, const RsbParams& params,
      sim::ClockDomain& static_domain, comm::SwitchBox* box);

  Iom(const Iom&) = delete;
  Iom& operator=(const Iom&) = delete;

  const std::string& name() const { return name_; }

  int num_producers() const { return static_cast<int>(sources_.size()); }
  int num_consumers() const { return static_cast<int>(sinks_.size()); }
  comm::ProducerInterface& producer(int channel = 0);
  comm::ConsumerInterface& consumer(int channel = 0);
  comm::FslLink& fsl_to_mb() { return *fsl_to_mb_; }
  comm::FslLink& fsl_from_mb() { return *fsl_from_mb_; }
  PrSocket& socket() { return *socket_; }

  // ---- Source halves (external input streams), per producer channel --

  /// Feeds the words of `data` one per `interval_cycles`, then stops.
  void set_source_data(std::vector<comm::Word> data, int interval_cycles = 1,
                       int channel = 0);

  /// Feeds generator output one word per `interval_cycles` until the
  /// generator returns nullopt.
  void set_source_generator(std::function<std::optional<comm::Word>()> gen,
                            int interval_cycles = 1, int channel = 0);

  /// Re-attaches `gen` to a source without restarting its pacing: the
  /// pending word, interval and next emit cycle carry over, as when a
  /// restored scheduler resumes a journaled stream.
  void resume_source_generator(std::function<std::optional<comm::Word>()> gen,
                               int channel);

  void stop_source(int channel = 0);
  bool source_active(int channel = 0) const;

  std::uint64_t words_emitted(int channel = 0) const;
  /// Words drawn from the source's generator: emitted plus the one held
  /// pending while the interface FIFO is full.
  std::uint64_t words_drawn(int channel = 0) const;
  /// Cycles where the source had a word ready but the producer FIFO was
  /// full — ingress backpressure / stream interruption at the input.
  std::uint64_t source_stall_cycles(int channel = 0) const;

  // ---- Sink halves (external output streams), per consumer channel ---

  /// Words retained in the history window (everything ever received
  /// unless a history limit is set). Word `received(ch)[i]` is the
  /// `received_dropped(ch) + i`-th word the sink ever drained.
  const std::vector<comm::Word>& received(int channel = 0) const;
  std::vector<comm::Word> take_received(int channel = 0);
  std::uint64_t eos_seen(int channel = 0) const;

  /// Monotone count of (non-EOS) words ever drained on the channel.
  /// Unlike received().size(), unaffected by history capping or
  /// take_received() — the right basis for long-run accounting.
  std::uint64_t words_received(int channel = 0) const;

  /// Words discarded from the front of the history window (by the
  /// history limit or take_received()).
  std::uint64_t received_dropped(int channel = 0) const;

  /// Caps the per-channel received-word history at roughly `max_words`
  /// (0 = unlimited, the default). When the cap is exceeded the older
  /// half of the window is dropped, so a soak run over millions of
  /// words holds memory flat while recent output stays inspectable.
  void set_received_history_limit(std::size_t max_words);

  /// Largest gap (in static-domain cycles) between consecutive output
  /// words since the last reset_gap_stats(). The output-stream
  /// interruption metric of experiment E3.
  sim::Cycles max_output_gap(int channel = 0) const;
  void reset_gap_stats();
  /// Per-channel variant: forgets gap state for one sink only, so
  /// concurrent apps on sibling channels keep their statistics.
  void reset_gap_stats(int channel);

  void commit() override;
  /// Nothing to inject (no generator, no stalled pending word) and
  /// nothing to drain (all sink FIFOs empty): the IOM sleeps until a
  /// source is armed or a consumer interface delivers a word.
  bool quiescent() const override;

  /// Snapshot fields (snap/format.hpp): socket, history cap, FSLs, then
  /// every source and sink half. A live generator is an opaque closure,
  /// so only its presence travels — legal only when
  /// `generators_journaled`, i.e. a scheduler section says how to resume
  /// it (resume_source_generator).
  template <class Ar>
  void visit(Ar& ar, bool generators_journaled) {
    ar(*socket_, history_limit_, *fsl_to_mb_, *fsl_from_mb_);
    ar.count(sources_.size(), "restore: IOM source count mismatch");
    for (Source& s : sources_) {
      bool live = s.generator != nullptr;
      ar(live);
      VAPRES_REQUIRE(!live || generators_journaled,
                     "snapshot: live source generator without a scheduler "
                     "journal (pass the owning scheduler)");
      ar(s.interval_cycles, s.next_emit_cycle, s.pending, s.words_emitted,
         s.stalls, *s.interface);
    }
    ar.count(sinks_.size(), "restore: IOM sink count mismatch");
    for (Sink& k : sinks_) {
      ar(*k.interface, k.received, k.words_received, k.dropped, k.eos_seen,
         k.have_last_arrival, k.last_arrival, k.max_gap);
    }
  }

 private:
  struct Source {
    std::unique_ptr<comm::ProducerInterface> interface;
    std::function<std::optional<comm::Word>()> generator;
    std::optional<comm::Word> pending;
    int interval_cycles = 1;
    sim::Cycles next_emit_cycle = 0;
    std::uint64_t words_emitted = 0;
    std::uint64_t stalls = 0;
  };
  struct Sink {
    std::unique_ptr<comm::ConsumerInterface> interface;
    std::vector<comm::Word> received;
    std::uint64_t words_received = 0;  // monotone; never decreases
    std::uint64_t dropped = 0;         // words aged out of `received`
    std::uint64_t eos_seen = 0;
    bool have_last_arrival = false;
    sim::Cycles last_arrival = 0;
    sim::Cycles max_gap = 0;
  };

  Source& source(int channel);
  const Source& source(int channel) const;
  Sink& sink(int channel);
  const Sink& sink(int channel) const;

  std::string name_;
  sim::ClockDomain& domain_;
  int width_bits_ = 32;
  std::size_t history_limit_ = 0;  // 0 = unlimited
  std::vector<Source> sources_;
  std::vector<Sink> sinks_;
  std::unique_ptr<comm::FslLink> fsl_to_mb_;
  std::unique_ptr<comm::FslLink> fsl_from_mb_;
  std::unique_ptr<PrSocket> socket_;
};

}  // namespace vapres::core
