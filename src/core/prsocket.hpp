// PRSocket (paper Figure 3 / Table 1).
//
// One PRSocket per switch-box/PRR (or switch-box/IOM) pair. It is a DCR
// slave through which the MicroBlaze controls everything at that site:
//
//   bit 0  SM_en      slice-macro isolation between PRR and static region
//   bit 1  PRR_reset  reset of the hardware module inside the PRR
//   bit 2  FIFO_reset reset of the module-interface FIFOs
//   bit 3  FSL_reset  reset of the FSL FIFOs
//   bit 4  FIFO_wen   switch box may write into the consumer interface
//   bit 5  FIFO_ren   switch box may read from the producer interface
//   bit 6  CLK_en     PRR clock enable (BUFR gate)
//   bit 7  CLK_sel    BUFGMUX select for the PRR clock
//   bit 8+ MUX_sel    switch-box output multiplexer selects
//
// MUX_sel packing: output port p occupies a field of sel_bits() bits
// starting at bit 8 + p * sel_bits(); field value 0 parks the output,
// value v >= 1 selects registered input v-1.
#pragma once

#include <string>
#include <vector>

#include "comm/dcr.hpp"
#include "comm/fsl.hpp"
#include "comm/module_interface.hpp"
#include "comm/switch_box.hpp"
#include "fabric/clocking.hpp"
#include "hwmodule/wrapper.hpp"

namespace vapres::core {

class PrSocket final : public comm::DcrSlave {
 public:
  /// All pointers are non-owning; null is allowed where the site has no
  /// such component (IOM sockets have no wrapper or clock tree).
  PrSocket(std::string name, comm::SwitchBox* box,
           std::vector<comm::ProducerInterface*> producers,
           std::vector<comm::ConsumerInterface*> consumers,
           comm::FslLink* fsl_to_mb, comm::FslLink* fsl_from_mb,
           hwmodule::ModuleWrapper* wrapper, fabric::PrrClockTree* clock);

  // Bit positions (Table 1).
  static constexpr comm::DcrValue kSmEn = 1u << 0;
  static constexpr comm::DcrValue kPrrReset = 1u << 1;
  static constexpr comm::DcrValue kFifoReset = 1u << 2;
  static constexpr comm::DcrValue kFslReset = 1u << 3;
  static constexpr comm::DcrValue kFifoWen = 1u << 4;
  static constexpr comm::DcrValue kFifoRen = 1u << 5;
  static constexpr comm::DcrValue kClkEn = 1u << 6;
  static constexpr comm::DcrValue kClkSel = 1u << 7;
  static constexpr int kMuxSelBase = 8;

  /// Bits per MUX_sel field for this socket's switch box.
  int sel_bits() const { return sel_bits_; }

  /// Encodes a MUX_sel field update into a DCR value: current value with
  /// output `port`'s field set to select `input` (-1 parks).
  comm::DcrValue with_mux_sel(comm::DcrValue current, int output_port,
                              int input) const;

  // DcrSlave
  comm::DcrValue dcr_read() const override { return value_; }
  void dcr_write(comm::DcrValue value) override;
  std::string dcr_name() const override { return name_; }

  /// Convenience for software: read-modify-write single control bits.
  comm::DcrValue value() const { return value_; }

  /// Snapshot field (snap/format.hpp). A restore writes the value through
  /// dcr_write — directly, not over the bus, so the bus access count stays
  /// flat — and its side effects (enables, resets, mux and clock selects)
  /// replay.
  template <class Ar>
  void visit(Ar& ar) {
    comm::DcrValue v = value_;
    ar(v);
    if constexpr (Ar::kReading) dcr_write(v);
  }

 private:
  void apply(comm::DcrValue old_value, comm::DcrValue new_value);

  std::string name_;
  comm::SwitchBox* box_;
  std::vector<comm::ProducerInterface*> producers_;
  std::vector<comm::ConsumerInterface*> consumers_;
  comm::FslLink* fsl_to_mb_;
  comm::FslLink* fsl_from_mb_;
  hwmodule::ModuleWrapper* wrapper_;
  fabric::PrrClockTree* clock_;
  int sel_bits_ = 0;
  comm::DcrValue value_ = 0;
};

}  // namespace vapres::core
