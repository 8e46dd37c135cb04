// Asynchronous FIFO model.
//
// Module interfaces and FSLs use BlockRAM-based asynchronous FIFOs to
// cross between the static-region clock domain and each PRR's local clock
// domain (Section III.B.2). In the discrete-event model, cross-domain
// accesses are totally ordered by simulation time, so a plain bounded
// queue is an exact behavioural model; the "asynchronous" property shows
// up as the two sides being clocked by different domains.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "comm/flit.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"

namespace vapres::comm {

class Fifo {
 public:
  /// Default depth: one RAMB16 configured 512 x 32 (the prototype's
  /// module-interface and FSL FIFOs).
  static constexpr int kDefaultDepth = 512;

  explicit Fifo(std::string name, int capacity = kDefaultDepth);

  const std::string& name() const { return name_; }
  int capacity() const { return capacity_; }

  bool empty() const { return words_.empty(); }
  bool full() const { return size() >= capacity_; }
  int size() const { return static_cast<int>(words_.size()); }
  int remaining() const { return capacity_ - size(); }

  /// Pushes a word. Throws on overflow — hardware FIFOs silently drop, but
  /// every writer in the model checks full()/backpressure first, so an
  /// overflow here is a protocol bug we want loud. (The consumer-interface
  /// drop path of Section III.B is modelled in ConsumerInterface, which
  /// counts discards explicitly.) With fault injection enabled, a push is
  /// an opportunity for the kFifoDropWord / kFifoDuplicateWord sites.
  void push(Word w);

  /// Pops and returns the oldest word. Throws on underflow.
  Word pop();

  /// Oldest word without removing it. Throws if empty.
  Word front() const;

  /// Clears contents (PRSocket FIFO_reset / FSL_reset).
  void reset();

  /// Registers a component whose activity depends on this FIFO. Every
  /// push, pop, and reset calls wake() on each target: a push gives the
  /// reader work, and a pop changes the fill level that backpressure
  /// thresholds are computed from. Registering a target twice is a no-op,
  /// so each push or pop wakes it once. Targets are never unregistered —
  /// wire only components that outlive the FIFO's use.
  void add_wake_target(sim::Clocked* target);

  std::uint64_t total_pushed() const { return pushed_; }
  std::uint64_t total_popped() const { return popped_; }
  int high_watermark() const { return high_watermark_; }

  /// Words lost / doubled by injected faults (0 unless injection is on).
  std::uint64_t fault_dropped() const { return fault_dropped_; }
  std::uint64_t fault_duplicated() const { return fault_duplicated_; }

  /// Snapshot fields (snap/format.hpp). A restore overlays contents and
  /// counters without waking targets or drawing fault opportunities, and
  /// rejects contents or a high watermark above this FIFO's capacity.
  template <class Ar>
  void visit(Ar& ar) {
    ar(words_, pushed_, popped_, fault_dropped_, fault_duplicated_,
       high_watermark_);
    if constexpr (Ar::kReading) {
      VAPRES_REQUIRE(size() <= capacity_ && high_watermark_ >= 0 &&
                         high_watermark_ <= capacity_,
                     "restore: FIFO " + name_ + " holds more than its " +
                         std::to_string(capacity_) + "-word capacity");
    }
  }

 private:
  void wake_targets();

  std::string name_;
  int capacity_;
  std::deque<Word> words_;
  std::vector<sim::Clocked*> wake_targets_;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t fault_duplicated_ = 0;
  int high_watermark_ = 0;
};

}  // namespace vapres::comm
