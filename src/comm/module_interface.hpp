// Producer and consumer module interfaces (paper Figure 2).
//
// Every PRR/IOM pairs with a switch box through FIFO-based module
// interfaces. The *producer* interface holds a FIFO written by the
// hardware module (in the module's local clock domain) and drained onto
// the switch-box fabric (in the static-region domain) when the PRSocket
// FIFO_ren bit is set and the pipelined feedback-full signal is clear.
// The *consumer* interface receives flits from the fabric, writes valid
// words into its FIFO when FIFO_wen is set, and asserts the feedback-full
// signal early enough to absorb every word still in the pipeline.
//
// Backpressure threshold: the paper states the signal asserts when the
// consumer FIFO's remaining space is "2*(N-d)" (N = FIFO capacity, d =
// switch-box hops). That expression is dimensionally inconsistent for
// N >> d (see DESIGN.md); the in-flight bound after assertion is the
// forward + backward pipeline depth, ~2d+2 words. The default policy
// asserts at remaining <= 2d+2 and is property-tested to never drop a
// word; the literal paper policy is also implemented so its behaviour can
// be demonstrated.
//
// The interfaces' static-region side is clocked by the SwitchFabric they
// attach to, not by the clock domain directly: the domain sees one
// component per fabric, and the fabric runs every attached interface in
// its own eval/commit loop.
#pragma once

#include <cstdint>
#include <string>

#include "comm/fifo.hpp"
#include "comm/flit.hpp"
#include "sim/component.hpp"

namespace vapres::comm {

enum class BackpressurePolicy {
  kPipelineDepth,  ///< assert when remaining <= 2*d + 2 (default, safe)
  kHalfCapacity,   ///< assert when remaining <= N/2 (safe, conservative)
  kLiteralPaper,   ///< assert when remaining <= 2*(N - d) (as printed)
};
constexpr BackpressurePolicy enum_last(BackpressurePolicy) {
  return BackpressurePolicy::kLiteralPaper;
}

/// Base of the parts a SwitchFabric clocks itself (module interfaces,
/// IOM source/sink logic). The static domain only sees the fabric, so
/// whatever changes one of these parts' inputs wakes the fabric.
class FabricPart {
 public:
  /// Re-arms the owning fabric's edge delivery; a no-op until attached.
  void wake() {
    if (owner_ != nullptr) owner_->wake();
  }

 protected:
  FabricPart() = default;
  ~FabricPart() = default;

 private:
  friend class SwitchFabric;

  sim::Clocked* owner_ = nullptr;
};

/// Producer interface: module-side FIFO -> fabric flit output.
/// Clocked in the static-region domain, by the fabric it attaches to.
class ProducerInterface final : public FabricPart {
 public:
  explicit ProducerInterface(std::string name,
                             int fifo_capacity = Fifo::kDefaultDepth,
                             int width_bits = 32);

  const std::string& name() const { return name_; }

  /// Module-side access (called from the module's clock domain).
  Fifo& fifo() { return fifo_; }
  const Fifo& fifo() const { return fifo_; }

  /// PRSocket FIFO_ren bit: enables draining the FIFO onto the fabric.
  void set_read_enable(bool enable) {
    read_enable_ = enable;
    wake();
  }
  bool read_enable() const { return read_enable_; }

  /// Wires the pipelined feedback-full signal (owned by the fabric's
  /// feedback pipeline). Null means "never full".
  void set_feedback_full_source(const bool* src) {
    feedback_full_ = src;
    wake();
  }

  /// Fabric-side output register (read by the paired switch box's input
  /// register during its eval).
  const Flit* output_signal() const { return &output_; }

  /// PRSocket FIFO_reset bit.
  void reset();

  std::uint64_t words_sent() const { return words_sent_; }
  /// Clock edges on which the interface had a word ready to drain but
  /// was blocked by the feedback-full backpressure signal. A rising
  /// count with a flat words_sent() is the software-visible signature
  /// of a congested channel (exposed over DCR by core::PerfCounters).
  /// Edges skipped while the whole domain is quiescent are not stalls:
  /// a stalled producer with a non-empty FIFO is kept non-quiescent so
  /// the count stays cycle-accurate.
  std::uint64_t stall_cycles() const { return stall_cycles_; }

  void eval() {
    const bool feedback = feedback_full_ != nullptr && *feedback_full_;
    if (read_enable_ && !feedback && !fifo_.empty()) {
      // Bit-extension: w payload bits + negated-empty flag as the valid
      // MSB. A w-bit channel physically carries only the low w bits.
      next_output_ = Flit{fifo_.front() & payload_mask(width_bits_), true};
      pop_pending_ = true;
    } else {
      if (read_enable_ && feedback && !fifo_.empty()) ++stall_cycles_;
      next_output_ = kIdleFlit;
      pop_pending_ = false;
    }
  }
  void commit() {
    if (pop_pending_) {
      fifo_.pop();
      ++words_sent_;
      pop_pending_ = false;
    }
    output_ = next_output_;
  }
  /// Idle output and nothing drainable (empty FIFO, read disabled, or
  /// stalled on feedback-full): further edges are no-ops until the FIFO
  /// or a PRSocket bit wakes the fabric.
  bool quiescent() const;

  /// Payload width of the attached channel (w in the paper's Figure 7).
  int width_bits() const { return width_bits_; }

  /// Snapshot fields (snap/format.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(fifo_, read_enable_, output_, next_output_, pop_pending_, words_sent_,
       stall_cycles_);
  }

 private:
  std::string name_;
  Fifo fifo_;
  int width_bits_;
  bool read_enable_ = false;
  const bool* feedback_full_ = nullptr;
  Flit output_{};
  Flit next_output_{};
  bool pop_pending_ = false;
  std::uint64_t words_sent_ = 0;
  std::uint64_t stall_cycles_ = 0;
};

/// Consumer interface: fabric flit input -> module-side FIFO.
/// Clocked in the static-region domain, by the fabric it attaches to.
class ConsumerInterface final : public FabricPart {
 public:
  explicit ConsumerInterface(std::string name, int fifo_capacity = Fifo::kDefaultDepth);

  const std::string& name() const { return name_; }

  Fifo& fifo() { return fifo_; }
  const Fifo& fifo() const { return fifo_; }

  /// PRSocket FIFO_wen bit: enables writing received words into the FIFO.
  void set_write_enable(bool enable) {
    write_enable_ = enable;
    wake();
  }
  bool write_enable() const { return write_enable_; }

  /// Wires the fabric-side input (the paired switch box's consumer-channel
  /// output slot). Null reads as idle.
  void set_input_signal(const Flit* src) {
    input_ = src;
    wake();
  }

  /// Configures backpressure for an established channel crossing `hops`
  /// switch boxes.
  void configure_backpressure(int hops, BackpressurePolicy policy);
  BackpressurePolicy policy() const { return policy_; }

  /// The registered feedback-full output (entry of the feedback pipeline).
  const bool* full_feedback_signal() const { return &full_feedback_; }

  void reset();

  std::uint64_t words_received() const { return words_received_; }
  /// Words discarded because the FIFO was full when they arrived
  /// (Section III.B: "when a consumer interface FIFO becomes full, all
  /// subsequent data words are discarded").
  std::uint64_t words_discarded() const { return words_discarded_; }

  void eval() {
    pending_ = input_ != nullptr ? *input_ : kIdleFlit;
    next_full_feedback_ = threshold_reached();
  }
  void commit() {
    if (pending_.valid && write_enable_) {
      if (fifo_.full()) {
        ++words_discarded_;
      } else {
        fifo_.push(pending_.data);
        ++words_received_;
      }
    }
    pending_ = kIdleFlit;
    full_feedback_ = next_full_feedback_;
  }
  /// Idle fabric input and a settled feedback-full register: further edges
  /// are no-ops until a flit arrives or the FIFO's fill level changes.
  bool quiescent() const;

  /// Snapshot fields (snap/format.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(fifo_, write_enable_, hops_, policy_, full_feedback_,
       next_full_feedback_, pending_, words_received_, words_discarded_);
  }

 private:
  bool threshold_reached() const {
    switch (policy_) {
      case BackpressurePolicy::kPipelineDepth:
        // Forward pipeline (producer output register + one register per
        // switch box) plus backward feedback latency: <= 2*hops + 2 words
        // can still arrive after the producer sees the assertion.
        return fifo_.remaining() <= 2 * hops_ + 2;
      case BackpressurePolicy::kHalfCapacity:
        // Hop-oblivious conservative rule: safe whenever the pipeline fits
        // in half the FIFO, at the cost of halving usable buffering.
        return fifo_.remaining() <= fifo_.capacity() / 2;
      case BackpressurePolicy::kLiteralPaper:
        return fifo_.remaining() <= 2 * (fifo_.capacity() - hops_);
    }
    return true;  // unreachable
  }

  std::string name_;
  Fifo fifo_;
  bool write_enable_ = false;
  const Flit* input_ = nullptr;
  int hops_ = 0;
  BackpressurePolicy policy_ = BackpressurePolicy::kPipelineDepth;
  bool full_feedback_ = false;
  bool next_full_feedback_ = false;
  Flit pending_{};
  std::uint64_t words_received_ = 0;
  std::uint64_t words_discarded_ = 0;
};

}  // namespace vapres::comm
