// Clock regions and CLB-grid rectangles.
//
// Section III.B.2 / IV.A floorplanning rules:
//  * a PRR must fit inside one to three *vertically adjacent* local clock
//    regions (a BUFR can only drive its own region plus the two adjacent
//    ones, so PRR height <= 3 x 16 = 48 CLBs);
//  * local clock regions used by different PRRs must not intersect;
//  * a region is half the device wide, so a PRR must not straddle the
//    vertical centre line.
// This header provides the geometry; the floorplanner in src/flow enforces
// the rules on whole systems.
#pragma once

#include <string>
#include <vector>

#include "fabric/device.hpp"
#include "fabric/resources.hpp"

namespace vapres::fabric {

/// Identifies one local clock region: vertical index (0 = bottom) and
/// horizontal half (0 = left, 1 = right).
struct ClockRegionId {
  int row = 0;
  int half = 0;

  friend constexpr bool operator==(const ClockRegionId&,
                                   const ClockRegionId&) = default;
  /// Linear index (row-major, left half first).
  int linear() const { return row * DeviceGeometry::kClockRegionCols + half; }
};

/// An axis-aligned rectangle on the CLB grid. `row`/`col` address the
/// bottom-left CLB; the rectangle spans `height` rows and `width` columns.
struct ClbRect {
  int row = 0;
  int col = 0;
  int height = 0;
  int width = 0;

  friend constexpr bool operator==(const ClbRect&, const ClbRect&) = default;

  int clbs() const { return height * width; }
  int slices() const { return clbs() * DeviceGeometry::kSlicesPerClb; }
  ResourceVector resources() const { return ResourceVector{slices(), 0, 0}; }

  bool overlaps(const ClbRect& o) const {
    return row < o.row + o.height && o.row < row + height &&
           col < o.col + o.width && o.col < col + width;
  }

  bool inside_device(const DeviceGeometry& dev) const {
    return row >= 0 && col >= 0 && height > 0 && width > 0 &&
           row + height <= dev.clb_rows() && col + width <= dev.clb_cols();
  }

  std::string to_string() const;
};

/// Snapshot fields (snap/format.hpp).
template <class Ar>
void visit(Ar& ar, ClbRect& r) {
  ar(r.row, r.col, r.height, r.width);
}

/// The set of local clock regions a rectangle touches.
std::vector<ClockRegionId> regions_spanned(const ClbRect& rect,
                                           const DeviceGeometry& dev);

/// True if `rect` lies entirely within one horizontal half of the device
/// (does not straddle the clock-region centre line).
bool within_one_half(const ClbRect& rect, const DeviceGeometry& dev);

/// Number of vertically adjacent clock regions the rectangle spans.
int vertical_region_span(const ClbRect& rect);

/// Checks every per-PRR legality rule from the paper for a candidate PRR
/// rectangle. Returns an empty string if legal, else a diagnostic.
std::string prr_legality_violation(const ClbRect& rect,
                                   const DeviceGeometry& dev);

}  // namespace vapres::fabric
