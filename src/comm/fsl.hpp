// FSL (Fast Simplex Link) model.
//
// PRRs interface with the MicroBlaze through *asynchronous* FSLs (Section
// III.B): unidirectional FIFO links with a master (writing) end and a
// slave (reading) end, used in the switching methodology to carry module
// monitoring data, state registers, and control messages (Figure 5,
// links r0..r2 towards the MicroBlaze and t0..t2 towards the PRRs/IOMs).
// The asynchronous FIFO inside the link is the clock-domain-crossing
// isolation between the PRR's local clock domain and the static region.
#pragma once

#include <optional>
#include <string>

#include "comm/fifo.hpp"

namespace vapres::comm {

class FslLink {
 public:
  explicit FslLink(std::string name, int depth = Fifo::kDefaultDepth);

  const std::string& name() const { return name_; }

  // Master (writing) end.
  bool can_write() const { return !fifo_.full(); }
  /// Blocking-write semantics are built by the caller spinning on
  /// can_write(); write() itself throws on a full link (protocol bug).
  void write(Word w) { fifo_.push(w); }

  // Slave (reading) end.
  bool can_read() const { return !fifo_.empty(); }
  Word read() { return fifo_.pop(); }
  Word peek() const { return fifo_.front(); }
  /// Non-throwing read used by polling software.
  std::optional<Word> try_read();

  /// PRSocket FSL_reset bit.
  void reset() { fifo_.reset(); }

  /// Registers a component to wake whenever the link is written, read,
  /// or reset (see Fifo::add_wake_target). Lets a clocked reader sleep
  /// while the link is idle without missing a message.
  void add_wake_target(sim::Clocked* target) { fifo_.add_wake_target(target); }

  int occupancy() const { return fifo_.size(); }
  int capacity() const { return fifo_.capacity(); }
  std::uint64_t total_written() const { return fifo_.total_pushed(); }

  /// Snapshot fields (snap/format.hpp).
  template <class Ar>
  void visit(Ar& ar) {
    ar(fifo_);
  }

 private:
  std::string name_;
  Fifo fifo_;
};

}  // namespace vapres::comm
