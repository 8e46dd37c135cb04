#include "comm/switch_fabric.hpp"

#include <algorithm>
#include <cstdlib>

#include "sim/check.hpp"
#include "sim/fault.hpp"

namespace vapres::comm {

int RouteSpec::segments() const {
  return std::abs(consumer_box - producer_box);
}

SwitchFabric::SwitchFabric(sim::ClockDomain& static_domain, int num_boxes,
                           SwitchBoxShape shape, std::string name)
    : static_domain_(static_domain),
      name_(std::move(name)),
      shape_(shape),
      in_ports_(shape.num_inputs()),
      out_ports_(shape.num_outputs()) {
  VAPRES_REQUIRE(num_boxes >= 1, "fabric needs at least one switch box");
  // A route crosses at most every box; its feedback pipeline is one bit
  // per box in a 64-bit shift register.
  VAPRES_REQUIRE(num_boxes <= 64, "fabric supports at most 64 switch boxes");
  VAPRES_REQUIRE(shape_.kr >= 0 && shape_.kl >= 0 && shape_.ki >= 0 &&
                     shape_.ko >= 0,
                 "switch box lane counts must be non-negative");
  VAPRES_REQUIRE(shape_.kr + shape_.kl > 0,
                 "switch box needs at least one inter-box lane");
  const auto n = static_cast<std::size_t>(num_boxes);
  boxes_.reserve(n);
  for (int i = 0; i < num_boxes; ++i) {
    boxes_.push_back(SwitchBox(*this, i, name_ + ".sw" + std::to_string(i)));
  }
  regs_.assign(n * static_cast<std::size_t>(in_ports_), kIdleFlit);
  regs_next_ = regs_;
  selects_.assign(n * static_cast<std::size_t>(out_ports_), -1);
  out_.assign(selects_.size(), kIdleFlit);
  stuck_.assign(selects_.size(), 0);
  stuck_events_.assign(n, 0);
  producers_.assign(n * static_cast<std::size_t>(shape_.ko), nullptr);
  consumers_.assign(n * static_cast<std::size_t>(shape_.ki), nullptr);
  static_domain_.attach(this);
}

SwitchBox& SwitchFabric::box(int index) {
  VAPRES_REQUIRE(index >= 0 && index < num_boxes(),
                 name_ + ": box index out of range");
  return boxes_[static_cast<std::size_t>(index)];
}

const SwitchBox& SwitchFabric::box(int index) const {
  VAPRES_REQUIRE(index >= 0 && index < num_boxes(),
                 name_ + ": box index out of range");
  return boxes_[static_cast<std::size_t>(index)];
}

Flit SwitchFabric::source_of(int b, int port) const {
  // Rightward lanes arrive from the left neighbour's rightward outputs,
  // leftward lanes from the right neighbour's leftward outputs; lanes off
  // either end of the array read idle.
  if (port < shape_.kr) {
    return b > 0 ? out_[static_cast<std::size_t>((b - 1) * out_ports_ + port)]
                 : kIdleFlit;
  }
  if (port < shape_.kr + shape_.kl) {
    return b + 1 < num_boxes()
               ? out_[static_cast<std::size_t>((b + 1) * out_ports_ + port)]
               : kIdleFlit;
  }
  const ProducerInterface* p = producers_[static_cast<std::size_t>(
      b * shape_.ko + port - shape_.kr - shape_.kl)];
  return p != nullptr ? *p->output_signal() : kIdleFlit;
}

void SwitchFabric::rebuild_live_ports() {
  const int n = num_boxes();
  const int kr = shape_.kr;
  const int kl = shape_.kl;
  live_outputs_.clear();
  live_lanes_.clear();
  for (int b = 0; b < n; ++b) {
    for (int p = 0; p < out_ports_; ++p) {
      const auto o = static_cast<std::uint32_t>(b * out_ports_ + p);
      const int sel = selects_[o];
      if (sel < 0 || stuck_[o] != 0) continue;
      live_outputs_.push_back(
          Wire{o, static_cast<std::uint32_t>(b * in_ports_ + sel)});
      // The lane continues into the neighbour's input of the same index
      // (see source_of); consumer outputs feed interfaces, not boxes.
      if (p < kr && b + 1 < n) {
        live_lanes_.push_back(
            Wire{static_cast<std::uint32_t>((b + 1) * in_ports_ + p), o});
      } else if (p >= kr && p < kr + kl && b > 0) {
        live_lanes_.push_back(
            Wire{static_cast<std::uint32_t>((b - 1) * in_ports_ + p), o});
      }
    }
  }
  ports_stale_ = false;
  settle_ = 2;
}

void SwitchFabric::eval_boxes_full() {
  for (int b = 0; b < num_boxes(); ++b) {
    for (int i = 0; i < in_ports_; ++i) {
      regs_next_[static_cast<std::size_t>(b * in_ports_ + i)] =
          source_of(b, i);
    }
  }
}

void SwitchFabric::commit_boxes_full() {
  regs_ = regs_next_;
  const Flit* regs = regs_.data();
  Flit* out = out_.data();
  const int* selects = selects_.data();
  const std::uint8_t* stuck = stuck_.data();
  const int n = num_boxes();
  for (int b = 0; b < n; ++b) {
    const Flit* box_regs = regs + b * in_ports_;
    for (int p = 0; p < out_ports_; ++p) {
      const int o = b * out_ports_ + p;
      if (stuck[o] != 0) continue;  // holds its last flit until repaired
      out[o] = selects[o] >= 0 ? box_regs[selects[o]] : kIdleFlit;
    }
  }
}

void SwitchFabric::eval() {
  if (ports_stale_ || settle_ > 0) {
    eval_boxes_full();
  } else {
    Flit* next = regs_next_.data();
    const Flit* out = out_.data();
    for (const Wire& w : live_lanes_) next[w.dst] = out[w.src];
    for (const auto& [reg, prod] : producer_inputs_) {
      next[reg] = *prod->output_signal();
    }
  }
  for (const Part& part : parts_) {
    switch (part.kind) {
      case Part::Kind::kProducer:
        static_cast<ProducerInterface*>(part.ptr)->eval();
        break;
      case Part::Kind::kConsumer:
        static_cast<ConsumerInterface*>(part.ptr)->eval();
        break;
      case Part::Kind::kLogic:
        break;
    }
  }
}

void SwitchFabric::commit() {
  auto& faults = sim::FaultInjector::instance();
  if (faults.enabled()) {
    // One stuck-port opportunity per healthy output, box by box and port
    // by port — the draw order the fault RNG replays against.
    for (std::size_t i = 0; i < stuck_.size(); ++i) {
      if (stuck_[i] == 0 &&
          faults.should_fire(sim::FaultSite::kSwitchBoxStuckPort)) {
        stuck_[i] = 1;
        ++stuck_events_[i / static_cast<std::size_t>(out_ports_)];
        invalidate_ports();
      }
    }
  }
  // Input registers latch, then the output muxes — combinational over the
  // just-latched registers — are materialized so the next eval reads this
  // cycle's values: one register of latency per box, as in the RTL.
  if (ports_stale_) rebuild_live_ports();
  if (settle_ > 0) {
    commit_boxes_full();
    --settle_;
  } else {
    Flit* regs = regs_.data();
    const Flit* next = regs_next_.data();
    Flit* out = out_.data();
    for (const Wire& w : live_lanes_) regs[w.dst] = next[w.dst];
    for (const auto& [reg, prod] : producer_inputs_) regs[reg] = next[reg];
    for (const Wire& w : live_outputs_) out[w.dst] = regs[w.src];
  }
  for (const Part& part : parts_) {
    switch (part.kind) {
      case Part::Kind::kProducer:
        static_cast<ProducerInterface*>(part.ptr)->commit();
        break;
      case Part::Kind::kConsumer:
        static_cast<ConsumerInterface*>(part.ptr)->commit();
        break;
      case Part::Kind::kLogic:
        static_cast<EndpointLogic*>(part.ptr)->commit();
        break;
    }
  }
  // After the consumers: each pipeline shifts in this cycle's full flag.
  for (FeedbackPipeline* fb : feedback_) {
    if (fb->born_mid_tick) {
      fb->born_mid_tick = false;
      if (fb->born_cycle == static_domain_.cycle_count()) continue;
    }
    fb->commit();
  }
}

bool SwitchFabric::quiescent() const {
  const int n = num_boxes();
  for (int b = 0; b < n; ++b) {
    const auto in_base = static_cast<std::size_t>(b * in_ports_);
    for (int i = 0; i < in_ports_; ++i) {
      if (!(source_of(b, i) == regs_[in_base + static_cast<std::size_t>(i)])) {
        return false;
      }
    }
    const auto out_base = static_cast<std::size_t>(b * out_ports_);
    for (int p = 0; p < out_ports_; ++p) {
      const std::size_t o = out_base + static_cast<std::size_t>(p);
      if (stuck_[o] != 0) continue;  // holds its last flit: stable
      const int sel = selects_[o];
      const Flit expect =
          sel >= 0 ? regs_[in_base + static_cast<std::size_t>(sel)]
                   : kIdleFlit;
      if (!(out_[o] == expect)) return false;
    }
  }
  for (const Part& part : parts_) {
    bool idle = true;
    switch (part.kind) {
      case Part::Kind::kProducer:
        idle = static_cast<const ProducerInterface*>(part.ptr)->quiescent();
        break;
      case Part::Kind::kConsumer:
        idle = static_cast<const ConsumerInterface*>(part.ptr)->quiescent();
        break;
      case Part::Kind::kLogic:
        idle = static_cast<const EndpointLogic*>(part.ptr)->quiescent();
        break;
    }
    if (!idle) return false;
  }
  for (const FeedbackPipeline* fb : feedback_) {
    if (!fb->quiescent()) return false;
  }
  return true;
}

void SwitchFabric::adopt(FabricPart& part, Fifo* fifo) {
  VAPRES_REQUIRE(part.owner_ == nullptr || part.owner_ == this,
                 name_ + ": part already attached to another fabric");
  part.owner_ = this;
  // A push gives a producer work and a pop changes the fill level a
  // consumer's feedback threshold is computed from.
  if (fifo != nullptr) fifo->add_wake_target(this);
  wake();
}

void SwitchFabric::attach_producer(int box_index, int channel,
                                   ProducerInterface* prod) {
  VAPRES_REQUIRE(prod != nullptr, "cannot attach null producer");
  const int port = box(box_index).input_producer(channel);
  auto& slot =
      producers_[static_cast<std::size_t>(box_index * shape_.ko + channel)];
  VAPRES_REQUIRE(slot == nullptr, "producer channel already attached");
  slot = prod;
  parts_.push_back(Part{Part::Kind::kProducer, prod});
  producer_inputs_.emplace_back(
      static_cast<std::uint32_t>(box_index * in_ports_ + port), prod);
  invalidate_ports();
  adopt(*prod, &prod->fifo());
}

void SwitchFabric::attach_consumer(int box_index, int channel,
                                   ConsumerInterface* cons) {
  VAPRES_REQUIRE(cons != nullptr, "cannot attach null consumer");
  const SwitchBox& b = box(box_index);
  const int port = b.output_consumer(channel);
  auto& slot =
      consumers_[static_cast<std::size_t>(box_index * shape_.ki + channel)];
  VAPRES_REQUIRE(slot == nullptr, "consumer channel already attached");
  slot = cons;
  parts_.push_back(Part{Part::Kind::kConsumer, cons});
  cons->set_input_signal(b.output_signal(port));
  adopt(*cons, &cons->fifo());
}

void SwitchFabric::attach_logic(EndpointLogic* logic) {
  VAPRES_REQUIRE(logic != nullptr, "cannot attach null endpoint logic");
  parts_.push_back(Part{Part::Kind::kLogic, logic});
  adopt(*logic, nullptr);
}

ProducerInterface* SwitchFabric::producer_at(int box_index,
                                             int channel) const {
  VAPRES_REQUIRE(box_index >= 0 && box_index < num_boxes(),
                 "box index out of range");
  VAPRES_REQUIRE(channel >= 0 && channel < shape_.ko,
                 "producer channel out of range");
  return producers_[static_cast<std::size_t>(box_index * shape_.ko +
                                            channel)];
}

ConsumerInterface* SwitchFabric::consumer_at(int box_index,
                                             int channel) const {
  VAPRES_REQUIRE(box_index >= 0 && box_index < num_boxes(),
                 "box index out of range");
  VAPRES_REQUIRE(channel >= 0 && channel < shape_.ki,
                 "consumer channel out of range");
  return consumers_[static_cast<std::size_t>(box_index * shape_.ki +
                                            channel)];
}

void SwitchFabric::validate_spec(const RouteSpec& spec) const {
  VAPRES_REQUIRE(spec.producer_box >= 0 && spec.producer_box < num_boxes(),
                 "route producer box out of range");
  VAPRES_REQUIRE(spec.consumer_box >= 0 && spec.consumer_box < num_boxes(),
                 "route consumer box out of range");
  VAPRES_REQUIRE(static_cast<int>(spec.lanes.size()) == spec.segments(),
                 "route must name one lane per inter-box segment");
  const int lane_count = spec.rightward() ? shape_.kr : shape_.kl;
  for (int lane : spec.lanes) {
    VAPRES_REQUIRE(lane >= 0 && lane < lane_count,
                   "route lane index out of range");
  }
  VAPRES_REQUIRE(producer_at(spec.producer_box, spec.producer_channel) !=
                     nullptr,
                 "no producer interface attached at route source");
  VAPRES_REQUIRE(consumer_at(spec.consumer_box, spec.consumer_channel) !=
                     nullptr,
                 "no consumer interface attached at route sink");
}

void SwitchFabric::claim_output(int box_index, int port,
                                const std::string& what) {
  const auto key = std::make_pair(box_index, port);
  VAPRES_REQUIRE(output_owner_.count(key) == 0,
                 name_ + ": " + what + " already carries an active route");
  // Ownership id is recorded by the caller after all claims succeed; a
  // placeholder marks the claim so later claims in the same call conflict.
  output_owner_[key] = 0;
}

RouteId SwitchFabric::establish(const RouteSpec& spec,
                                BackpressurePolicy policy) {
  validate_spec(spec);

  // Configure backpressure first: it rejects consumer FIFOs too shallow
  // for the route's in-flight window, and must fail before any physical
  // state is claimed.
  ConsumerInterface* consumer =
      consumer_at(spec.consumer_box, spec.consumer_channel);
  consumer->configure_backpressure(spec.hops(), policy);

  // Compute the (box, output port) list first, then claim atomically.
  std::vector<std::pair<int, int>> outputs;
  const int step = spec.rightward() ? 1 : -1;
  if (spec.segments() == 0) {
    SwitchBox& b = box(spec.producer_box);
    outputs.emplace_back(spec.producer_box,
                         b.output_consumer(spec.consumer_channel));
  } else {
    int box_index = spec.producer_box;
    for (int seg = 0; seg < spec.segments(); ++seg) {
      SwitchBox& b = box(box_index);
      const int out = spec.rightward()
                          ? b.output_right_lane(spec.lanes[
                                static_cast<std::size_t>(seg)])
                          : b.output_left_lane(spec.lanes[
                                static_cast<std::size_t>(seg)]);
      outputs.emplace_back(box_index, out);
      box_index += step;
    }
    SwitchBox& last = box(spec.consumer_box);
    outputs.emplace_back(spec.consumer_box,
                         last.output_consumer(spec.consumer_channel));
  }

  for (const auto& [bi, port] : outputs) {
    // Roll back earlier claims if any claim fails.
    try {
      claim_output(bi, port, box(bi).name());
    } catch (...) {
      for (const auto& [ubi, uport] : outputs) {
        if (ubi == bi && uport == port) break;
        output_owner_.erase(std::make_pair(ubi, uport));
      }
      throw;
    }
  }

  // Apply mux selects.
  if (spec.segments() == 0) {
    SwitchBox& b = box(spec.producer_box);
    b.select(b.output_consumer(spec.consumer_channel),
             b.input_producer(spec.producer_channel));
  } else {
    int box_index = spec.producer_box;
    for (int seg = 0; seg < spec.segments(); ++seg) {
      SwitchBox& b = box(box_index);
      const int lane = spec.lanes[static_cast<std::size_t>(seg)];
      const int out = spec.rightward() ? b.output_right_lane(lane)
                                       : b.output_left_lane(lane);
      int in;
      if (seg == 0) {
        in = b.input_producer(spec.producer_channel);
      } else {
        const int prev_lane = spec.lanes[static_cast<std::size_t>(seg - 1)];
        in = spec.rightward() ? b.input_right_lane(prev_lane)
                              : b.input_left_lane(prev_lane);
      }
      b.select(out, in);
      box_index += step;
    }
    SwitchBox& last = box(spec.consumer_box);
    const int last_lane = spec.lanes.back();
    last.select(last.output_consumer(spec.consumer_channel),
                spec.rightward() ? last.input_right_lane(last_lane)
                                 : last.input_left_lane(last_lane));
  }

  ActiveRoute route;
  route.spec = spec;
  route.outputs = outputs;
  route.producer = producer_at(spec.producer_box, spec.producer_channel);
  route.consumer = consumer;
  route.feedback.source = route.consumer->full_feedback_signal();
  route.feedback.depth = spec.hops();
  route.feedback.born_mid_tick = static_domain_.in_tick();
  route.feedback.born_cycle = static_domain_.cycle_count();

  const RouteId id = next_route_id_++;
  for (const auto& key : outputs) output_owner_[key] = id;
  ActiveRoute& placed = routes_.emplace(id, std::move(route)).first->second;
  feedback_.push_back(&placed.feedback);
  placed.producer->set_feedback_full_source(&placed.feedback.output);
  return id;
}

void SwitchFabric::release(RouteId id) {
  auto it = routes_.find(id);
  VAPRES_REQUIRE(it != routes_.end(), "release of unknown route");
  ActiveRoute& route = it->second;
  for (const auto& [bi, port] : route.outputs) {
    box(bi).select(port, -1);
    output_owner_.erase(std::make_pair(bi, port));
  }
  route.producer->set_feedback_full_source(nullptr);
  feedback_.erase(
      std::find(feedback_.begin(), feedback_.end(), &route.feedback));
  routes_.erase(it);
}

}  // namespace vapres::comm
