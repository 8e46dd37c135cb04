// Streaming-channel establishment (Table 2: vapres_establish_channel).
//
// The ChannelManager is the model of the software routing layer: it keeps
// the comm_state the paper's API threads through calls — which inter-box
// lanes are free on every segment, and which module endpoints are in use —
// picks a lane per segment (first-fit; switch boxes can change lanes at
// every hop because each output mux sees all registered inputs), and
// drives the SwitchFabric to program the path. Establishment *fails
// softly* (returns nullopt, the paper's "returns zero") when some segment
// has no free lane in the needed direction or an endpoint is busy.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "comm/switch_fabric.hpp"

namespace vapres::core {

struct ChannelEndpoint {
  int box = 0;
  int channel = 0;

  friend constexpr auto operator<=>(const ChannelEndpoint&,
                                    const ChannelEndpoint&) = default;
};

using ChannelId = std::uint32_t;

class ChannelManager {
 public:
  explicit ChannelManager(comm::SwitchFabric& fabric);

  /// Establishes a streaming channel from `producer` to `consumer`.
  /// Returns nullopt (no side effects) when no route capacity exists.
  std::optional<ChannelId> establish(
      ChannelEndpoint producer, ChannelEndpoint consumer,
      comm::BackpressurePolicy policy =
          comm::BackpressurePolicy::kPipelineDepth);

  /// Releases a channel, freeing its lanes and endpoints.
  void release(ChannelId id);

  bool active(ChannelId id) const { return channels_.count(id) > 0; }
  std::size_t active_count() const { return channels_.size(); }

  const comm::RouteSpec& spec(ChannelId id) const;
  comm::RouteId route(ChannelId id) const;

  /// Free lanes on physical segment `segment` (between boxes segment and
  /// segment+1) in the given direction.
  int free_lanes(int segment, bool rightward) const;
  int num_segments() const;

  /// PRSocket DCR writes software performs to program a path: one MUX_sel
  /// write per traversed switch box plus the endpoint wen/ren writes.
  static int dcr_writes_for(const comm::RouteSpec& spec);

  /// Snapshot fields (snap/format.hpp): every channel with its route spec
  /// and fabric route, then the id counters. A restore (into a manager
  /// with no channels) re-registers each channel under its saved id with
  /// its exact saved spec and re-establishes the route under its saved
  /// route id — replaying establish() could pick different lanes than the
  /// saved interleaving of establishes and releases did.
  template <class Ar>
  void visit(Ar& ar) {
    auto n = static_cast<std::uint32_t>(channels_.size());
    ar(n);
    auto it = channels_.begin();
    for (std::uint32_t i = 0; i < n; ++i) {
      ChannelId id = 0;
      Entry e;
      if constexpr (!Ar::kReading) {
        id = it->first;
        e = (it++)->second;
      }
      ar(id, e.spec, e.route);
      fabric_.visit_route(ar, e.route, e.spec);
      if constexpr (Ar::kReading) adopt(id, std::move(e));
    }
    ar(next_id_);
    fabric_.visit_next_route_id(ar);
  }

 private:
  struct Entry {
    comm::RouteId route = 0;
    comm::RouteSpec spec;
  };

  /// Registers an already-routed channel under `id` (snapshot restore).
  void adopt(ChannelId id, Entry e);
  int physical_segment(const comm::RouteSpec& spec, int route_seg) const;
  std::vector<bool>& lane_table(int segment, bool rightward);
  const std::vector<bool>& lane_table(int segment, bool rightward) const;

  comm::SwitchFabric& fabric_;
  std::vector<std::vector<bool>> right_used_;  // [segment][lane]
  std::vector<std::vector<bool>> left_used_;
  std::set<ChannelEndpoint> producers_used_;
  std::set<ChannelEndpoint> consumers_used_;
  std::map<ChannelId, Entry> channels_;
  ChannelId next_id_ = 1;
};

}  // namespace vapres::core
