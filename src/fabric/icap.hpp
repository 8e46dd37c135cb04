// ICAP (Internal Configuration Access Port) model.
//
// The Virtex-4 ICAP accepts one 32-bit configuration word per port-clock
// cycle. This class models the *hardware* port: occupancy, byte counters,
// and the physical lower bound on transfer time. The (much larger)
// software-driver overhead measured in the paper — the XHwICAP-style
// per-frame processing that dominates vapres_array2icap — is modelled by
// the reconfiguration manager in src/core/reconfig using calibrated costs.
//
// Fault model: at begin_transfer the port samples the fault injector for
// the two ICAP fault sites (word corruption / CRC mismatch, transfer
// timeout); end_transfer reports the result. The port performs the
// bitstream CRC check that real Virtex configuration logic runs, so a
// corrupted transfer is detected at the port — recovery policy (retry,
// backoff, source fallback) lives in core::ReconfigManager.
#pragma once

#include <cstdint>

#include "sim/check.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace vapres::fabric {

/// Outcome of one ICAP transfer, as seen by the port's CRC/handshake
/// logic at completion.
struct IcapTransferResult {
  bool corrupted = false;  ///< bitstream CRC mismatch
  bool timed_out = false;  ///< transfer handshake timed out

  bool ok() const { return !corrupted && !timed_out; }
};

class IcapPort {
 public:
  explicit IcapPort(double port_clock_mhz = 100.0);

  double port_clock_mhz() const { return port_clock_mhz_; }

  bool busy() const { return busy_; }
  std::int64_t inflight_bytes() const { return inflight_bytes_; }

  /// Marks the port busy for a transfer of `bytes`. Throws if already busy
  /// (the EAPR flow serializes all ICAP access through one controller).
  void begin_transfer(std::int64_t bytes);

  /// Completes the in-flight transfer and reports whether it was clean.
  IcapTransferResult end_transfer();

  /// Physical lower bound on the time to clock `bytes` through the port
  /// (one 32-bit word per port cycle).
  sim::Picoseconds min_transfer_time_ps(std::int64_t bytes) const;

  std::int64_t total_bytes_configured() const { return total_bytes_; }
  /// Transfers that completed clean (CRC good, no timeout).
  int completed_transfers() const { return transfers_; }
  int corrupted_transfers() const { return corrupted_; }
  int timed_out_transfers() const { return timed_out_; }

  /// Snapshot fields (snap/format.hpp): the lifetime counters. A cold
  /// checkpoint requires !busy(), so nothing in flight travels.
  template <class Ar>
  void visit(Ar& ar) {
    ar.check(port_clock_mhz_, "restore: ICAP port clock mismatch");
    ar(total_bytes_, transfers_, corrupted_, timed_out_);
  }

 private:
  double port_clock_mhz_;
  bool busy_ = false;
  std::int64_t inflight_bytes_ = 0;
  std::int64_t total_bytes_ = 0;
  int transfers_ = 0;
  int corrupted_ = 0;
  int timed_out_ = 0;
  bool inflight_corrupted_ = false;
  bool inflight_timed_out_ = false;
};

}  // namespace vapres::fabric
