// Bitstream objects.
//
// A partial bitstream configures one PRR with one hardware module; its
// size follows from the PRR's frame geometry (fabric/frame.hpp), which is
// what couples PRR dimensions to reconfiguration time in the model. The
// content is summarized by an integrity tag (the model's stand-in for the
// bitstream CRC) so tests can detect misdirected configuration.
#pragma once

#include <cstdint>
#include <string>

#include "fabric/clock_region.hpp"
#include "fabric/device.hpp"

namespace vapres::bitstream {

struct PartialBitstream {
  std::string module_id;   ///< Netlist/behaviour the bitstream implements.
  std::string target_prr;  ///< PRR instance the bitstream was placed for.
  fabric::ClbRect region;  ///< The PRR rectangle it reconfigures.
  std::int64_t size_bytes = 0;
  std::uint32_t tag = 0;  ///< Integrity tag over the fields above.

  /// Builds a bitstream record for `module_id` implemented in `target_prr`
  /// at `region`; size derives from the frame geometry.
  static PartialBitstream create(std::string module_id, std::string target_prr,
                                 const fabric::ClbRect& region);

  /// Recomputes the integrity tag and compares.
  bool valid() const;
};

/// Snapshot fields (snap/format.hpp).
template <class Ar>
void visit(Ar& ar, PartialBitstream& bs) {
  ar(bs.module_id, bs.target_prr, bs.region, bs.size_bytes, bs.tag);
}

struct StaticBitstream {
  std::string system_name;
  std::string device_name;
  std::int64_t size_bytes = 0;

  /// Full-device configuration size for `dev` in the frame model.
  static StaticBitstream create(std::string system_name,
                                const fabric::DeviceGeometry& dev);
};

/// FNV-1a based tag over a bitstream's identifying fields.
std::uint32_t bitstream_tag(const std::string& module_id,
                            const std::string& target_prr,
                            const fabric::ClbRect& region,
                            std::int64_t size_bytes);

}  // namespace vapres::bitstream
