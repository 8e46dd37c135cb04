// Partially reconfigurable region (PRR) site.
//
// One PRR bundles everything at its slot of the RSB: the reconfigurable
// rectangle on the fabric, its local clock domain and BUFR/BUFGMUX clock
// tree, its module-interface FIFOs, the asynchronous FSL pair to the
// MicroBlaze, the module wrapper hosting the currently loaded hardware
// module, and the PRSocket that lets software control all of it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "comm/fsl.hpp"
#include "comm/module_interface.hpp"
#include "core/params.hpp"
#include "core/perfcounter.hpp"
#include "core/prsocket.hpp"
#include "fabric/clocking.hpp"
#include "hwmodule/library.hpp"
#include "hwmodule/wrapper.hpp"
#include "sim/simulator.hpp"

namespace vapres::core {

class Prr {
 public:
  /// `box` is the paired switch box (for the socket); interfaces are
  /// created here and attached to the fabric by the owning RSB.
  Prr(std::string name, int index, const fabric::ClbRect& rect,
      const RsbParams& params, const fabric::DeviceGeometry& device,
      sim::Simulator& sim, double clock_a_mhz, double clock_b_mhz,
      comm::SwitchBox* box);

  Prr(const Prr&) = delete;
  Prr& operator=(const Prr&) = delete;
  ~Prr();

  const std::string& name() const { return name_; }
  int index() const { return index_; }
  const fabric::ClbRect& rect() const { return rect_; }
  fabric::ResourceVector capacity() const { return rect_.resources(); }

  sim::ClockDomain& clock_domain() { return *domain_; }
  fabric::PrrClockTree& clock_tree() { return *clock_tree_; }

  comm::ConsumerInterface& consumer(int channel);
  comm::ProducerInterface& producer(int channel);
  int num_consumers() const { return static_cast<int>(consumers_.size()); }
  int num_producers() const { return static_cast<int>(producers_.size()); }

  comm::FslLink& fsl_to_mb() { return *fsl_to_mb_; }
  comm::FslLink& fsl_from_mb() { return *fsl_from_mb_; }

  hwmodule::ModuleWrapper& wrapper() { return *wrapper_; }
  PrSocket& socket() { return *socket_; }
  /// DCR-mapped stream counters (words in/out, stalls, discards summed
  /// across this PRR's channels). Mapped by the owning RSB next to the
  /// socket; read by StreamMonitor-style software over the bridge.
  PerfCounters& perf_counters() { return *perf_; }

  /// Applies a partial bitstream: validates it targets this PRR (name,
  /// rectangle, integrity tag) and instantiates the module from the
  /// library into the wrapper. This is the configuration *effect*; the
  /// reconfiguration *time* is charged by core::ReconfigManager.
  void apply_bitstream(const bitstream::PartialBitstream& bs,
                       const hwmodule::ModuleLibrary& library);

  /// Unloads the module and forgets its name: the site is blank, as
  /// before its first configuration (the spare of a rolled-back switch).
  void unload_module();

  const std::string& loaded_module() const { return loaded_module_; }
  bool occupied() const { return wrapper_->loaded(); }
  int reconfiguration_count() const { return reconfigurations_; }

  /// Snapshot fields (snap/format.hpp): occupancy, socket, perf select,
  /// wrapper, interfaces and FSLs. A restore reloads the saved module
  /// first — the configuration effect — so the wrapper overlay below lands
  /// on the new instance; apply_bitstream counts a reconfiguration and
  /// names the module, so the saved count and name are assigned after it
  /// (a stale name on an unloaded wrapper, which blanking leaves, restores
  /// too).
  template <class Ar>
  void visit(Ar& ar, const hwmodule::ModuleLibrary& library) {
    bool loaded = wrapper_->loaded();
    std::string module = loaded_module_;
    int reconfigurations = reconfigurations_;
    if constexpr (!Ar::kReading) {
      VAPRES_REQUIRE(!loaded || wrapper_->behavior()->type_id() == module,
                     "snapshot: wrapper/module bookkeeping out of sync at " +
                         name_);
    }
    ar(loaded, module, reconfigurations);
    if constexpr (Ar::kReading) {
      if (loaded) {
        apply_bitstream(
            bitstream::PartialBitstream::create(module, name_, rect_),
            library);
      }
      loaded_module_ = module;
      reconfigurations_ = reconfigurations;
    }
    ar(*socket_);
    // The perf select travels as u8.
    auto perf_select = static_cast<std::uint8_t>(perf_->selected());
    ar.u8(perf_select);
    if constexpr (Ar::kReading) perf_->dcr_write(perf_select);
    ar(*wrapper_);
    for (const auto& c : consumers_) ar(*c);
    for (const auto& p : producers_) ar(*p);
    ar(*fsl_to_mb_, *fsl_from_mb_);
  }

 private:
  std::string name_;
  int index_;
  fabric::ClbRect rect_;
  sim::ClockDomain* domain_;  // owned by the Simulator
  std::unique_ptr<fabric::PrrClockTree> clock_tree_;
  std::vector<std::unique_ptr<comm::ConsumerInterface>> consumers_;
  std::vector<std::unique_ptr<comm::ProducerInterface>> producers_;
  std::unique_ptr<comm::FslLink> fsl_to_mb_;
  std::unique_ptr<comm::FslLink> fsl_from_mb_;
  std::unique_ptr<hwmodule::ModuleWrapper> wrapper_;
  std::unique_ptr<PrSocket> socket_;
  std::unique_ptr<PerfCounters> perf_;
  std::string loaded_module_;
  int reconfigurations_ = 0;
};

}  // namespace vapres::core
