#include "core/channel.hpp"

#include "sim/check.hpp"

namespace vapres::core {

ChannelManager::ChannelManager(comm::SwitchFabric& fabric) : fabric_(fabric) {
  const int segments = fabric_.num_boxes() - 1;
  right_used_.assign(
      static_cast<std::size_t>(segments),
      std::vector<bool>(static_cast<std::size_t>(fabric_.shape().kr), false));
  left_used_.assign(
      static_cast<std::size_t>(segments),
      std::vector<bool>(static_cast<std::size_t>(fabric_.shape().kl), false));
}

int ChannelManager::num_segments() const { return fabric_.num_boxes() - 1; }

std::vector<bool>& ChannelManager::lane_table(int segment, bool rightward) {
  VAPRES_REQUIRE(segment >= 0 && segment < num_segments(),
                 "segment index out of range");
  return rightward ? right_used_[static_cast<std::size_t>(segment)]
                   : left_used_[static_cast<std::size_t>(segment)];
}

const std::vector<bool>& ChannelManager::lane_table(int segment,
                                                    bool rightward) const {
  VAPRES_REQUIRE(segment >= 0 && segment < num_segments(),
                 "segment index out of range");
  return rightward ? right_used_[static_cast<std::size_t>(segment)]
                   : left_used_[static_cast<std::size_t>(segment)];
}

int ChannelManager::free_lanes(int segment, bool rightward) const {
  int n = 0;
  for (bool used : lane_table(segment, rightward)) {
    if (!used) ++n;
  }
  return n;
}

int ChannelManager::physical_segment(const comm::RouteSpec& spec,
                                     int route_seg) const {
  return spec.rightward() ? spec.producer_box + route_seg
                          : spec.producer_box - 1 - route_seg;
}

std::optional<ChannelId> ChannelManager::establish(
    ChannelEndpoint producer, ChannelEndpoint consumer,
    comm::BackpressurePolicy policy) {
  VAPRES_REQUIRE(producer.box >= 0 && producer.box < fabric_.num_boxes(),
                 "producer box out of range");
  VAPRES_REQUIRE(consumer.box >= 0 && consumer.box < fabric_.num_boxes(),
                 "consumer box out of range");
  VAPRES_REQUIRE(
      producer.channel >= 0 && producer.channel < fabric_.shape().ko,
      "producer channel out of range");
  VAPRES_REQUIRE(
      consumer.channel >= 0 && consumer.channel < fabric_.shape().ki,
      "consumer channel out of range");
  // The routing layer only builds channels between distinct sites: the
  // priced switch-box connectivity has consumer outputs multiplexing the
  // inter-box lanes, not the site's own producers (see
  // flow::ResourceModel::switch_box_slices).
  VAPRES_REQUIRE(producer.box != consumer.box,
                 "streaming channels connect distinct PRRs/IOMs");

  if (producers_used_.count(producer) > 0 ||
      consumers_used_.count(consumer) > 0) {
    return std::nullopt;  // endpoint already carries a channel
  }

  comm::RouteSpec spec;
  spec.producer_box = producer.box;
  spec.producer_channel = producer.channel;
  spec.consumer_box = consumer.box;
  spec.consumer_channel = consumer.channel;

  // First-fit lane selection per segment; switch boxes can change lanes
  // at each hop, so segments are independent.
  const bool rightward = spec.rightward();
  for (int seg = 0; seg < spec.segments(); ++seg) {
    spec.lanes.push_back(-1);
    const auto& table = lane_table(physical_segment(spec, seg), rightward);
    for (std::size_t lane = 0; lane < table.size(); ++lane) {
      if (!table[lane]) {
        spec.lanes.back() = static_cast<int>(lane);
        break;
      }
    }
    if (spec.lanes.back() < 0) return std::nullopt;  // segment saturated
  }

  const comm::RouteId route = fabric_.establish(spec, policy);

  for (int seg = 0; seg < spec.segments(); ++seg) {
    lane_table(physical_segment(spec, seg), rightward)
        [static_cast<std::size_t>(spec.lanes[static_cast<std::size_t>(seg)])] =
            true;
  }
  producers_used_.insert(producer);
  consumers_used_.insert(consumer);

  const ChannelId id = next_id_++;
  channels_.emplace(id, Entry{route, std::move(spec)});
  return id;
}

void ChannelManager::adopt(ChannelId id, Entry e) {
  const comm::RouteSpec& spec = e.spec;
  const ChannelEndpoint producer{spec.producer_box, spec.producer_channel};
  const ChannelEndpoint consumer{spec.consumer_box, spec.consumer_channel};
  VAPRES_REQUIRE(channels_.count(id) == 0 && producers_used_.count(producer) == 0 &&
                     consumers_used_.count(consumer) == 0,
                 "restore: channel id or endpoint registered twice");
  const bool rightward = spec.rightward();
  for (int seg = 0; seg < spec.segments(); ++seg) {
    lane_table(physical_segment(spec, seg), rightward)
        [static_cast<std::size_t>(spec.lanes[static_cast<std::size_t>(seg)])] =
            true;
  }
  producers_used_.insert(producer);
  consumers_used_.insert(consumer);
  channels_.emplace(id, std::move(e));
}

void ChannelManager::release(ChannelId id) {
  auto it = channels_.find(id);
  VAPRES_REQUIRE(it != channels_.end(), "release of unknown channel");
  const Entry& entry = it->second;
  const comm::RouteSpec& spec = entry.spec;

  fabric_.release(entry.route);

  const bool rightward = spec.rightward();
  for (int seg = 0; seg < spec.segments(); ++seg) {
    lane_table(physical_segment(spec, seg), rightward)
        [static_cast<std::size_t>(spec.lanes[static_cast<std::size_t>(seg)])] =
            false;
  }
  producers_used_.erase(
      ChannelEndpoint{spec.producer_box, spec.producer_channel});
  consumers_used_.erase(
      ChannelEndpoint{spec.consumer_box, spec.consumer_channel});
  channels_.erase(it);
}

const comm::RouteSpec& ChannelManager::spec(ChannelId id) const {
  auto it = channels_.find(id);
  VAPRES_REQUIRE(it != channels_.end(), "unknown channel");
  return it->second.spec;
}

comm::RouteId ChannelManager::route(ChannelId id) const {
  auto it = channels_.find(id);
  VAPRES_REQUIRE(it != channels_.end(), "unknown channel");
  return it->second.route;
}

int ChannelManager::dcr_writes_for(const comm::RouteSpec& spec) {
  // One MUX_sel write per traversed box, plus consumer FIFO_wen and
  // producer FIFO_ren updates.
  return spec.hops() + 2;
}

}  // namespace vapres::core
