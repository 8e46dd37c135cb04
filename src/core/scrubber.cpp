#include "core/scrubber.hpp"

#include "sim/fault.hpp"

namespace vapres::core {

ScrubberTask::ScrubberTask(VapresSystem& sys, sim::Cycles period_cycles)
    : sys_(sys), period_(period_cycles) {
  VAPRES_REQUIRE(period_cycles > 0, "scrub period must be positive");
}

void ScrubberTask::start() { sys_.mb().add_task(this); }

bool ScrubberTask::step(proc::Microblaze& mb) {
  if (mb.cycle() < next_due_) return false;
  // The scrub readback shares the ICAP with reconfiguration; skip this
  // pass if a PR is in flight rather than corrupting its transfer.
  if (sys_.reconfig().busy() || sys_.icap().busy()) {
    next_due_ = mb.cycle() + period_;
    return false;
  }

  ++scans_;
  auto& faults = sim::FaultInjector::instance();
  sim::Cycles charged = 0;
  for (int r = 0; r < sys_.num_rsbs(); ++r) {
    Rsb& rsb = sys_.rsb(r);
    // Frame scan: each PRR's configuration is read back and compared.
    // The kConfigFrameUpset site decides whether an SEU hit the region
    // since the last pass.
    for (int p = 0; p < rsb.num_prrs(); ++p) {
      charged += kReadbackCyclesPerPrr;
      if (faults.enabled() &&
          faults.should_fire(sim::FaultSite::kConfigFrameUpset)) {
        ++frame_repairs_;
        faults.note_recovery(sim::RecoveryEvent::kScrubRepair);
        charged += kRewriteCyclesPerFrame;
      }
    }
    // Mux scan: a stuck switch-box output is a flipped MUX_sel bit in
    // configuration memory — rewriting its frame un-sticks the port.
    comm::SwitchFabric& fabric = rsb.fabric();
    for (int b = 0; b < fabric.num_boxes(); ++b) {
      comm::SwitchBox& box = fabric.box(b);
      for (int port = 0; port < box.shape().num_outputs(); ++port) {
        if (!box.output_stuck(port)) continue;
        box.repair_output(port);
        ++mux_repairs_;
        faults.note_recovery(sim::RecoveryEvent::kScrubRepair);
        charged += kRewriteCyclesPerFrame;
      }
    }
  }
  mb.busy_for(charged);
  next_due_ = mb.cycle() + period_;
  return false;  // periodic: never finishes
}

}  // namespace vapres::core
