// Online placement state for the multi-application scheduler.
//
// A FabricMap is the scheduler's view of one RSB's PRRs: which slot is
// free, which app/module occupies it, and whether the occupant may be
// relocated live (tail-of-chain modules, whose EOS word the sink IOM can
// observe during the 9-step switch). It is a plain value type — the
// admission path copies it to plan placements and defragmentation
// tentatively before committing anything to hardware.
#pragma once

#include <string>
#include <vector>

#include "fabric/clock_region.hpp"
#include "fabric/resources.hpp"

namespace vapres::sched {

/// How the scheduler picks among multiple fitting free PRRs.
enum class PlacementPolicy {
  kFirstFit,  ///< lowest index that fits (the RuntimeAssembler baseline)
  kBestFit,   ///< fewest wasted slices; ties broken by lowest index
};
constexpr PlacementPolicy enum_last(PlacementPolicy) {
  return PlacementPolicy::kBestFit;
}

const char* policy_name(PlacementPolicy p);

/// One PRR slot of the fabric map.
struct PrrSlot {
  fabric::ClbRect rect;
  bool free = true;
  int app_id = -1;            ///< occupying app, -1 when free
  int chain_pos = -1;         ///< position of the module in its chain
  std::string module_id;      ///< occupying module, "" when free
  int module_slices = 0;      ///< occupant footprint (utilization)
  bool migratable = false;    ///< occupant may be relocated live
};

class FabricMap {
 public:
  FabricMap() = default;
  explicit FabricMap(std::vector<fabric::ClbRect> rects);

  int num_slots() const { return static_cast<int>(slots_.size()); }
  const PrrSlot& slot(int prr) const;

  bool fits(const fabric::ResourceVector& need, int prr) const;

  /// Free PRR for `need` under `policy`; -1 when no free slot fits.
  int find_free(const fabric::ResourceVector& need,
                PlacementPolicy policy) const;

  /// True when `need` fits *some* slot of the fabric, free or not
  /// (distinguishes "fragmented" from "never fits this fabric").
  bool fits_somewhere(const fabric::ResourceVector& need) const;

  void occupy(int prr, int app_id, int chain_pos,
              const std::string& module_id, int module_slices,
              bool migratable);
  void release(int prr);

  /// Moves slot `src`'s occupant to free slot `dst` (a planned or
  /// completed relocation).
  void move(int src, int dst);

  int free_count() const;
  /// Occupied module slices / total PRR slices (fabric utilization).
  double utilization() const;
  int total_slices() const { return total_slices_; }

  /// Snapshot fields (snap/format.hpp): every slot's occupancy; the slot
  /// rectangles come from the floorplan.
  template <class Ar>
  void visit(Ar& ar) {
    ar.count(slots_.size(), "restore: fabric-map size mismatch");
    for (PrrSlot& s : slots_) {
      ar(s.free, s.app_id, s.chain_pos, s.module_id, s.module_slices,
         s.migratable);
    }
  }

 private:
  std::vector<PrrSlot> slots_;
  int total_slices_ = 0;
};

}  // namespace vapres::sched
