// Switch box (paper Section III.B, Figure 3).
//
// Each PRR/IOM pairs with one switch box in a linear array. Internally a
// switch box is "a set of multiplexers and one register connected to each
// switch box input port": every input port latches its source each
// static-region cycle, and every output port combinationally selects one
// registered input via a multiplexer whose select lines are the MUX_sel
// bits of the paired PRSocket's DCR. Data therefore advances one switch
// box per cycle — the pipelining that lets the fabric close timing at
// 100 MHz where a long shared bus reached only 50 MHz (Section II).
//
// Port layout for a box with parameters (kr, kl, ki, ko):
//   inputs : [0, kr)            rightward lanes arriving from the left
//            [kr, kr+kl)        leftward  lanes arriving from the right
//            [kr+kl, kr+kl+ko)  producer channels of the paired module
//   outputs: [0, kr)            rightward lanes departing to the right
//            [kr, kr+kl)        leftward  lanes departing to the left
//            [kr+kl, kr+kl+ki)  consumer channels of the paired module
//
// The registers themselves live in the owning SwitchFabric, flat across
// all of its boxes, and the fabric clocks them. A SwitchBox is a handle
// onto one box's slice: port arithmetic plus the runtime configuration
// and fault state a PRSocket, the scrubber and the tooling touch.
#pragma once

#include <cstddef>
#include <string>

#include "comm/flit.hpp"

namespace vapres::comm {

class SwitchFabric;

/// Lane-count parameters of one switch box.
struct SwitchBoxShape {
  int kr = 2;  ///< rightward-flowing inter-box lanes
  int kl = 2;  ///< leftward-flowing inter-box lanes
  int ki = 1;  ///< consumer channels into the paired module
  int ko = 1;  ///< producer channels out of the paired module

  int num_inputs() const { return kr + kl + ko; }
  int num_outputs() const { return kr + kl + ki; }
};

class SwitchBox {
 public:
  SwitchBox(const SwitchBox&) = delete;
  SwitchBox& operator=(const SwitchBox&) = delete;
  SwitchBox(SwitchBox&&) = default;

  const std::string& name() const { return name_; }
  const SwitchBoxShape& shape() const;

  // -- Port index helpers ---------------------------------------------
  int input_right_lane(int lane) const;
  int input_left_lane(int lane) const;
  int input_producer(int channel) const;
  int output_right_lane(int lane) const;
  int output_left_lane(int lane) const;
  int output_consumer(int channel) const;

  /// Current value of output `port` (stable for the fabric's lifetime).
  const Flit* output_signal(int port) const;

  // -- Runtime configuration (PRSocket MUX_sel bits) --------------------
  /// Routes output `port` from registered input `input_port`; -1 parks the
  /// output (drives idle flits).
  void select(int output_port, int input_port);
  int selected(int output_port) const;

  // -- Fault state (kSwitchBoxStuckPort site) ---------------------------
  // With injection enabled, each commit is an opportunity per output for
  // the mux to go stuck: the output register latches its current flit and
  // ignores the select until repaired (configuration-memory upset in the
  // MUX_sel bits). Repair is a frame rewrite — the scrubber's job.
  bool output_stuck(int port) const;
  void repair_output(int port);
  int stuck_output_count() const;

 private:
  friend class SwitchFabric;

  SwitchBox(SwitchFabric& fabric, int index, std::string name);

  void check_input(int port) const;
  void check_output(int port) const;
  /// Flat index of output `port` in the fabric's per-output arrays.
  std::size_t out(int port) const;

  SwitchFabric* fabric_;
  int index_;
  std::string name_;
};

}  // namespace vapres::comm
