// The structured event-tracing bus.
//
// The simulator's only trace channel: a process-wide hub collecting
// typed obs::Event records into a bounded power-of-two ring buffer.
// Disabled — the default — every emit call is one mask load and branch;
// no allocation, no string formatting, no ring traffic. Enabled, an emit
// is a couple of stores into the ring; when the ring is full the *oldest*
// record is overwritten and the dropped counter advances, so a long run
// keeps the most recent window.
//
// Tracks give events a home lane in the exporters: one track per clock
// domain, PRR, or software task, registered by name on first use. Track
// 0 is always "main".
//
// Exporters (Chrome trace_event JSON for Perfetto/chrome://tracing and
// the VCD writer) live in obs/export.hpp; metrics in obs/metrics.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "sim/time.hpp"

namespace vapres::obs {

class Histogram;

class EventBus {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  static EventBus& instance();

  /// Enables capture for the subsystems in `subsystem_mask` (bit i =
  /// Subsystem(i)) with a ring of at least `capacity` events (rounded up
  /// to a power of two). Clears previously captured events.
  void enable(std::uint32_t subsystem_mask = ~0u,
              std::size_t capacity = kDefaultCapacity);
  /// Stops capture. Captured events stay readable until the next
  /// enable() or clear().
  void disable() { mask_ = 0; }

  static constexpr std::uint32_t bit(Subsystem s) {
    return 1u << static_cast<unsigned>(s);
  }
  /// The one-branch hot-path guard.
  bool enabled(Subsystem s) const { return (mask_ & bit(s)) != 0; }
  bool enabled() const { return mask_ != 0; }
  std::uint32_t mask() const { return mask_; }

  /// Appends one record (no-op when the subsystem is disabled).
  void emit(const Event& e) {
    if (!enabled(e.subsystem)) return;
    push(e);
  }

  void instant(Subsystem s, std::uint16_t code, std::uint32_t track,
               sim::Picoseconds t, std::uint64_t arg0 = 0,
               std::uint64_t arg1 = 0) {
    if (!enabled(s)) return;
    push(Event{t, arg0, arg1, track, code, s, EventKind::kInstant});
  }
  void begin_span(Subsystem s, std::uint16_t code, std::uint32_t track,
                  sim::Picoseconds t, std::uint64_t arg0 = 0,
                  std::uint64_t arg1 = 0) {
    if (!enabled(s)) return;
    push(Event{t, arg0, arg1, track, code, s, EventKind::kBegin});
  }
  void end_span(Subsystem s, std::uint16_t code, std::uint32_t track,
                sim::Picoseconds t, std::uint64_t arg0 = 0,
                std::uint64_t arg1 = 0) {
    if (!enabled(s)) return;
    push(Event{t, arg0, arg1, track, code, s, EventKind::kEnd});
  }

  /// Looks up (or registers) a named track and returns its id. Track
  /// names are stable for the life of the bus; exporters use them as
  /// thread names.
  std::uint32_t track(const std::string& name);
  const std::vector<std::string>& track_names() const { return tracks_; }

  /// Events currently retained (<= capacity), oldest first.
  std::vector<Event> snapshot() const;
  std::size_t size() const;
  std::size_t capacity() const { return ring_.size(); }
  /// Oldest records overwritten because the ring was full.
  std::uint64_t dropped() const;
  /// Lifetime records accepted (retained + dropped).
  std::uint64_t total_emitted() const { return head_; }

  /// Drops captured events and the drop counter; keeps mask and tracks.
  void clear();

  /// Publishes ring occupancy and trace loss as Registry gauges
  /// (obs.bus.dropped / retained / capacity / total_emitted), so a
  /// metrics snapshot shows whether the trace window is complete.
  /// Called off the hot path: by the health sampler, exporters, and
  /// harness reports.
  void publish_gauges() const;

 private:
  EventBus();

  void push(const Event& e) {
    ring_[static_cast<std::size_t>(head_) & (ring_.size() - 1)] = e;
    ++head_;
  }

  std::uint32_t mask_ = 0;
  std::vector<Event> ring_;
  std::uint64_t head_ = 0;  ///< monotonic write cursor
  std::vector<std::string> tracks_;
  std::map<std::string, std::uint32_t> track_ids_;
};

/// A duration span whose begin and end live in different callbacks (the
/// common case in a discrete-event model, where RAII scoping does not
/// match simulated time). Copyable value type; `end()` emits the closing
/// record and optionally feeds the duration to a latency histogram.
class Span {
 public:
  Span() = default;

  static Span begin(Subsystem s, std::uint16_t code, std::uint32_t track,
                    sim::Picoseconds now, std::uint64_t arg0 = 0);

  /// Emits the end record and returns the duration. `cycles` (when
  /// >= 0) is recorded into `hist` instead of the picosecond duration —
  /// control-path latencies are conventionally tracked in MicroBlaze
  /// cycles. Ending a never-begun span is a no-op returning 0.
  sim::Picoseconds end(sim::Picoseconds now, Histogram* hist = nullptr,
                       std::int64_t cycles = -1);

  bool open() const { return open_; }
  sim::Picoseconds begin_ps() const { return begin_ps_; }

 private:
  Subsystem subsystem_ = Subsystem::kKernel;
  std::uint16_t code_ = 0;
  std::uint32_t track_ = 0;
  sim::Picoseconds begin_ps_ = 0;
  bool open_ = false;
};

}  // namespace vapres::obs
