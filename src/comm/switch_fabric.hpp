// Linear switch-box array + streaming-channel mechanics.
//
// The fabric owns the switch boxes of one RSB, wires the inter-box lanes,
// and applies/clears route configurations (the mux selects a PRSocket's
// MUX_sel bits control, plus the backwards-pipelined feedback-full signal
// of Section III.B). *Which* lanes a channel uses is decided above, by
// core::ChannelManager (the model of vapres_establish_channel); the fabric
// enforces physical legality: ports exist, are attached, and are not
// already driven by another active route.
//
// The fabric is the one clocked component the static-region domain sees
// for the whole array. Each edge runs one loop over flat registers: every
// box's input registers, mux selects, outputs and stuck latches, indexed
// by box and port, then the attached module interfaces and IOM logic in
// attachment order, then the feedback pipelines. Activity is tracked for
// the fabric as a whole: lanes are read by index with no per-flit hook,
// so one idle box says nothing while a neighbour may still push a flit
// into it.
//
// The feedback-full signal is modelled as a per-route backward shift
// register of the same depth as the forward path. In the RTL it is one
// backward register per traversed switch box; a depth-d shift register is
// cycle-for-cycle identical (see DESIGN.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "comm/module_interface.hpp"
#include "comm/switch_box.hpp"
#include "sim/clock.hpp"

namespace vapres::comm {

/// A fully specified streaming-channel route: endpoints plus the lane to
/// use on every inter-box segment (|producer_box - consumer_box| lanes,
/// rightward lanes if the consumer is to the right, leftward otherwise).
struct RouteSpec {
  int producer_box = 0;
  int producer_channel = 0;
  int consumer_box = 0;
  int consumer_channel = 0;
  std::vector<int> lanes;

  int segments() const;
  bool rightward() const { return consumer_box > producer_box; }
  /// Switch boxes traversed (= registers on the forward path).
  int hops() const { return segments() + 1; }
};

/// Snapshot fields (snap/format.hpp).
template <class Ar>
void visit(Ar& ar, RouteSpec& s) {
  ar(s.producer_box, s.producer_channel, s.consumer_box, s.consumer_channel,
     s.lanes);
}

using RouteId = std::uint32_t;

/// Static-region logic on the module side of an attachment point's
/// interfaces (the IOM's source and sink halves). The fabric commits it
/// at its attachment position, so the FIFO pushes it makes draw fault
/// opportunities in a fixed order relative to the interfaces' own, and
/// the fabric sleeps only while it is quiescent too.
class EndpointLogic : public FabricPart {
 public:
  virtual ~EndpointLogic() = default;
  /// Latches one static-region cycle.
  virtual void commit() = 0;
  /// Same promise as sim::Clocked::quiescent().
  virtual bool quiescent() const = 0;
};

class SwitchFabric final : public sim::Clocked {
 public:
  /// Builds `num_boxes` switch boxes of identical `shape`, clocked by
  /// `static_domain`, with the inter-box lanes wired.
  SwitchFabric(sim::ClockDomain& static_domain, int num_boxes,
               SwitchBoxShape shape, std::string name = "fabric");

  SwitchFabric(const SwitchFabric&) = delete;
  SwitchFabric& operator=(const SwitchFabric&) = delete;

  std::string name() const override { return name_; }
  int num_boxes() const { return static_cast<int>(boxes_.size()); }
  const SwitchBoxShape& shape() const { return shape_; }
  SwitchBox& box(int index);
  const SwitchBox& box(int index) const;

  /// Attaches a producer interface to producer channel `channel` of box
  /// `box_index`. The interface must outlive the fabric's use of it.
  /// Attached parts commit in attachment order.
  void attach_producer(int box_index, int channel, ProducerInterface* prod);
  void attach_consumer(int box_index, int channel, ConsumerInterface* cons);
  /// Attaches endpoint logic, committed after every part attached before
  /// it. Must outlive the fabric's use of it.
  void attach_logic(EndpointLogic* logic);

  ProducerInterface* producer_at(int box_index, int channel) const;
  ConsumerInterface* consumer_at(int box_index, int channel) const;

  /// Applies a route: configures the mux selects along the path, the
  /// consumer's backpressure threshold, and the feedback pipeline.
  /// Throws ModelError on any physical conflict.
  RouteId establish(const RouteSpec& spec,
                    BackpressurePolicy policy = BackpressurePolicy::kPipelineDepth);

  /// Tears down a route, parking its output ports.
  void release(RouteId id);

  bool route_active(RouteId id) const { return routes_.count(id) > 0; }
  std::size_t active_routes() const { return routes_.size(); }

  void eval() override;
  void commit() override;
  /// Every box's input registers equal their sources and every non-stuck
  /// output equals its mux selection, and every attached part and
  /// feedback pipeline is quiescent: further edges are no-ops.
  bool quiescent() const override;

  /// Snapshot fields of the box registers (snap/format.hpp): per box its
  /// input registers, then per output its mux select, value and stuck
  /// latch. A restore rebuilds the live-port lists from them.
  template <class Ar>
  void visit(Ar& ar) {
    ar.count(boxes_.size(), "restore: switch-box count mismatch");
    const auto ins = static_cast<std::size_t>(in_ports_);
    const auto outs = static_cast<std::size_t>(out_ports_);
    for (std::size_t b = 0; b < boxes_.size(); ++b) {
      for (std::size_t k = b * ins; k < (b + 1) * ins; ++k) {
        ar(regs_[k], regs_next_[k]);
      }
      for (std::size_t k = b * outs; k < (b + 1) * outs; ++k) {
        bool stuck = stuck_[k] != 0;
        ar(selects_[k], out_[k], stuck);
        if constexpr (Ar::kReading) {
          VAPRES_REQUIRE(selects_[k] >= -1 && selects_[k] < in_ports_,
                         "restore: mux select out of range");
          stuck_[k] = stuck ? 1 : 0;
        }
      }
      ar(stuck_events_[b]);
    }
    if constexpr (Ar::kReading) invalidate_ports();
  }

  /// Snapshot fields of route `id` (snap/format.hpp): its consumer's
  /// backpressure policy and its feedback-pipeline registers. A restore
  /// first establishes `spec` under the saved id.
  template <class Ar>
  void visit_route(Ar& ar, RouteId id, const RouteSpec& spec) {
    BackpressurePolicy policy = BackpressurePolicy::kPipelineDepth;
    if constexpr (!Ar::kReading) policy = routes_.at(id).consumer->policy();
    ar(policy);
    if constexpr (Ar::kReading) {
      VAPRES_REQUIRE(id != 0 && !route_active(id),
                     "restore: duplicate route id");
      next_route_id_ = id;
      establish(spec, policy);
    }
    FeedbackPipeline& fb = routes_.at(id).feedback;
    ar.count(static_cast<std::size_t>(fb.depth),
             "restore: feedback depth mismatch");
    for (int st = 0; st < fb.depth; ++st) {
      bool stage = ((fb.stages >> st) & 1u) != 0;
      ar(stage);
      if constexpr (Ar::kReading) {
        const std::uint64_t bit = std::uint64_t{1} << st;
        fb.stages = stage ? (fb.stages | bit) : (fb.stages & ~bit);
      }
    }
    ar(fb.output);
  }

  /// Snapshot field of the route-id counter (snap/format.hpp).
  template <class Ar>
  void visit_next_route_id(Ar& ar) {
    ar(next_route_id_);
  }

 private:
  friend class SwitchBox;

  /// Backward shift register carrying the consumer's full signal to the
  /// producer with one register per traversed switch box. Bit i of
  /// `stages` is stage i; the producer reads `output`.
  struct FeedbackPipeline {
    const bool* source = nullptr;
    std::uint64_t stages = 0;
    int depth = 1;
    bool output = false;
    // Established during static cycle `born_cycle` (mid-tick): like any
    // component attached mid-tick, it gets its first edge on the next tick.
    bool born_mid_tick = false;
    sim::Cycles born_cycle = 0;

    void commit() {
      output = ((stages >> (depth - 1)) & 1u) != 0;
      stages = ((stages << 1) | (*source ? 1u : 0u)) & mask();
    }
    /// Every stage (and the output) already equals the source.
    bool quiescent() const {
      return output == *source && stages == (*source ? mask() : 0u);
    }
    std::uint64_t mask() const {
      return depth >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << depth) - 1u;
    }
  };

  struct ActiveRoute {
    RouteSpec spec;
    // (box index, output port) pairs this route configured.
    std::vector<std::pair<int, int>> outputs;
    FeedbackPipeline feedback;
    ProducerInterface* producer = nullptr;
    ConsumerInterface* consumer = nullptr;
  };

  /// A part the fabric clocks, in commit order; `kind` names the type
  /// `ptr` is dispatched to without a virtual call.
  struct Part {
    enum class Kind : std::uint8_t { kProducer, kConsumer, kLogic };
    Kind kind;
    FabricPart* ptr;
  };

  void validate_spec(const RouteSpec& spec) const;
  void claim_output(int box_index, int port, const std::string& what);
  void adopt(FabricPart& part, Fifo* fifo);
  /// Value input `port` of box `b` latches this cycle.
  Flit source_of(int b, int port) const;
  /// Marks the live-port lists stale: called whenever a select or stuck
  /// latch changes, a producer attaches, or restore overlays registers.
  void invalidate_ports() { ports_stale_ = true; }
  void rebuild_live_ports();
  void eval_boxes_full();
  void commit_boxes_full();

  sim::ClockDomain& static_domain_;
  std::string name_;
  SwitchBoxShape shape_;
  int in_ports_ = 0;   // input ports per box
  int out_ports_ = 0;  // output ports per box
  std::vector<SwitchBox> boxes_;

  // Box registers, flat: inputs at [box * in_ports_ + port], outputs at
  // [box * out_ports_ + port].
  std::vector<Flit> regs_;       ///< registered input ports (current)
  std::vector<Flit> regs_next_;  ///< registered input ports (next)
  std::vector<int> selects_;     ///< per-output mux select, -1 = parked
  std::vector<Flit> out_;        ///< materialized output values
  std::vector<std::uint8_t> stuck_;  ///< per-output stuck-fault latch
  std::vector<int> stuck_events_;    ///< per box, lifetime total

  // Live ports, derived from selects_, stuck_ and the attached producers.
  // A parked output drives idle and a stuck one holds its flit, so once
  // every register has been recomputed twice after a change (settle_
  // full passes), those outputs and the inputs they feed are constant and
  // each edge only needs to move flits along the live wires.
  struct Wire {
    std::uint32_t dst;
    std::uint32_t src;
  };
  std::vector<Wire> live_outputs_;  ///< out_[dst] = regs_[src]
  std::vector<Wire> live_lanes_;    ///< regs_next_[dst] = out_[src]
  /// regs_next_[first] = the attached producer's output register.
  std::vector<std::pair<std::uint32_t, const ProducerInterface*>>
      producer_inputs_;
  bool ports_stale_ = true;
  int settle_ = 0;

  // Attachment tables: [box * ko + channel] and [box * ki + channel].
  std::vector<ProducerInterface*> producers_;
  std::vector<ConsumerInterface*> consumers_;
  std::vector<Part> parts_;
  // Output-port occupancy: (box index, output port) -> owning route.
  std::map<std::pair<int, int>, RouteId> output_owner_;
  std::map<RouteId, ActiveRoute> routes_;
  // Feedback pipelines in establishment order (map nodes are stable).
  std::vector<FeedbackPipeline*> feedback_;
  RouteId next_route_id_ = 1;
};

}  // namespace vapres::comm
