#include "comm/module_interface.hpp"

namespace vapres::comm {

ProducerInterface::ProducerInterface(std::string name, int fifo_capacity,
                                     int width_bits)
    : name_(std::move(name)),
      fifo_(name_ + ".fifo", fifo_capacity),
      width_bits_(width_bits) {
  VAPRES_REQUIRE(width_bits_ >= 1 && width_bits_ <= 32,
                 name_ + ": channel width must be 1..32 bits");
}

void ProducerInterface::reset() {
  fifo_.reset();
  output_ = kIdleFlit;
  next_output_ = kIdleFlit;
  pop_pending_ = false;
  wake();
}

bool ProducerInterface::quiescent() const {
  const bool feedback = feedback_full_ != nullptr && *feedback_full_;
  // A stalled producer (word ready, blocked on feedback-full) must keep
  // ticking so stall_cycles_ counts every blocked edge.
  const bool stalled = read_enable_ && feedback && !fifo_.empty();
  const bool next_idle = !(read_enable_ && !feedback && !fifo_.empty());
  return !output_.valid && next_idle && !stalled;
}

ConsumerInterface::ConsumerInterface(std::string name, int fifo_capacity)
    : name_(std::move(name)), fifo_(name_ + ".fifo", fifo_capacity) {}

void ConsumerInterface::configure_backpressure(int hops,
                                               BackpressurePolicy policy) {
  VAPRES_REQUIRE(hops >= 0, "negative hop count");
  // The FIFO must be able to hold the full in-flight window above the
  // assertion threshold, or the feedback signal would stay asserted
  // forever and the channel deadlocks. This is the design rule behind the
  // paper's capacity-vs-hops formula: N must exceed ~2d (see DESIGN.md).
  const bool deep_enough =
      (policy == BackpressurePolicy::kPipelineDepth &&
       fifo_.capacity() > 2 * hops + 2) ||
      (policy == BackpressurePolicy::kHalfCapacity &&
       fifo_.capacity() / 2 >= 2 * hops + 2) ||
      policy == BackpressurePolicy::kLiteralPaper;
  VAPRES_REQUIRE(deep_enough,
                 name_ + ": consumer FIFO depth " +
                     std::to_string(fifo_.capacity()) +
                     " too shallow for a " + std::to_string(hops) +
                     "-hop channel under this backpressure policy");
  hops_ = hops;
  policy_ = policy;
  wake();
}

void ConsumerInterface::reset() {
  fifo_.reset();
  full_feedback_ = false;
  next_full_feedback_ = false;
  pending_ = kIdleFlit;
  wake();
}

bool ConsumerInterface::quiescent() const {
  const bool input_idle = input_ == nullptr || !input_->valid;
  return input_idle && full_feedback_ == threshold_reached();
}

}  // namespace vapres::comm
