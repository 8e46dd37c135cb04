// DCR (Device Control Register) bus and PLB-to-DCR bridge.
//
// Each PRSocket exposes one DCR as a slave peripheral; the MicroBlaze
// reaches it through a PLB-to-DCR bridge (Section III.B, ref [11]).
// DcrBus routes 10-bit-style addresses to slave registers; the bridge's
// contribution is the per-access latency the MicroBlaze pays, accounted
// in processor cycles.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/check.hpp"

namespace vapres::comm {

using DcrAddress = std::uint32_t;
using DcrValue = std::uint32_t;

/// A DCR slave: one 32-bit control register with write side effects.
class DcrSlave {
 public:
  virtual ~DcrSlave() = default;
  virtual DcrValue dcr_read() const = 0;
  virtual void dcr_write(DcrValue value) = 0;
  virtual std::string dcr_name() const = 0;
};

class DcrBus {
 public:
  /// Cycle cost of one bridged access, paid by the MicroBlaze. The
  /// PLB-to-DCR bridge serializes a PLB transaction into the DCR daisy
  /// chain; a handful of cycles per access.
  static constexpr int kBridgeAccessCycles = 6;

  /// Maps `slave` at `address`. The slave must outlive the bus.
  void map(DcrAddress address, DcrSlave* slave);
  void unmap(DcrAddress address);

  DcrValue read(DcrAddress address) const;
  void write(DcrAddress address, DcrValue value);

  bool mapped(DcrAddress address) const { return slaves_.count(address) > 0; }
  std::size_t slave_count() const { return slaves_.size(); }

  std::uint64_t total_accesses() const { return accesses_; }

  /// Snapshot fields (snap/format.hpp). Restore writes sockets directly,
  /// not over the bus, so the overlaid count is exact.
  template <class Ar>
  void visit(Ar& ar) {
    ar(accesses_);
  }

 private:
  DcrSlave* find(DcrAddress address) const;

  std::map<DcrAddress, DcrSlave*> slaves_;
  mutable std::uint64_t accesses_ = 0;
};

}  // namespace vapres::comm
