// Experiment E4 — inter-module communication architecture vs related
// work (paper Sections II and III.B).
//
// Comparison points the paper names:
//   * VAPRES pipelined switch boxes close timing at 100 MHz and move one
//     word per cycle per channel, independent of hop count and of how
//     many channels are active (dedicated lanes);
//   * Sonic-on-a-Chip's shared time-multiplexed bus ran at 50 MHz and
//     divides that bandwidth across channels;
//   * Ullmann et al. route every word through the MicroBlaze.
//
// The bench measures per-channel throughput (Mwords/s) and first-word
// latency for all three on the same simulator.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/cpu_routed.hpp"
#include "baseline/shared_bus.hpp"
#include "comm/module_interface.hpp"
#include "comm/switch_fabric.hpp"
#include "proc/microblaze.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace vapres;
using comm::Word;

// ---- VAPRES switch-box fabric ----------------------------------------

struct VapresRig {
  sim::Simulator sim;
  sim::ClockDomain* clk;
  std::unique_ptr<comm::SwitchFabric> fabric;
  std::vector<std::unique_ptr<comm::ProducerInterface>> producers;
  std::vector<std::unique_ptr<comm::ConsumerInterface>> consumers;

  explicit VapresRig(int boxes, int lanes) {
    clk = &sim.create_domain("clk", 100.0);
    fabric = std::make_unique<comm::SwitchFabric>(
        *clk, boxes, comm::SwitchBoxShape{lanes, lanes, 1, 1});
    for (int i = 0; i < boxes; ++i) {
      producers.push_back(
          std::make_unique<comm::ProducerInterface>("p", 512));
      consumers.push_back(
          std::make_unique<comm::ConsumerInterface>("c", 512));
      fabric->attach_producer(i, 0, producers.back().get());
      fabric->attach_consumer(i, 0, consumers.back().get());
    }
  }
};

/// Words per channel delivered in `cycles` cycles with `channels`
/// concurrent distance-`dist` streams, all saturated. Channel ch runs
/// from box ch to box ch+dist on lane ch (ki = ko = 1, so each channel
/// needs its own endpoint boxes).
double vapres_words_per_channel(int channels, int dist, int cycles) {
  VapresRig rig(channels + dist, channels);
  for (int ch = 0; ch < channels; ++ch) {
    comm::RouteSpec spec;
    spec.producer_box = ch;
    spec.consumer_box = ch + dist;
    spec.lanes.assign(static_cast<std::size_t>(dist), ch);
    rig.fabric->establish(spec);
    rig.producers[static_cast<std::size_t>(spec.producer_box)]
        ->set_read_enable(true);
    rig.consumers[static_cast<std::size_t>(spec.consumer_box)]
        ->set_write_enable(true);
  }
  std::uint64_t delivered = 0;
  for (int c = 0; c < cycles; ++c) {
    for (auto& p : rig.producers) {
      if (p->read_enable() && !p->fifo().full()) {
        p->fifo().push(static_cast<Word>(c));
      }
    }
    rig.sim.run_cycles(*rig.clk, 1);
    for (auto& cons : rig.consumers) {
      while (!cons->fifo().empty()) {
        cons->fifo().pop();
        ++delivered;
      }
    }
  }
  return static_cast<double>(delivered) / channels;
}

/// First-word latency in cycles over `dist` switch boxes.
int vapres_latency(int dist) {
  VapresRig rig(dist + 1, 2);
  comm::RouteSpec spec;
  spec.producer_box = 0;
  spec.consumer_box = dist;
  spec.lanes.assign(static_cast<std::size_t>(dist), 0);
  rig.fabric->establish(spec);
  rig.consumers[static_cast<std::size_t>(dist)]->set_write_enable(true);
  rig.producers[0]->fifo().push(1);
  rig.producers[0]->set_read_enable(true);
  int cycles = 0;
  while (rig.consumers[static_cast<std::size_t>(dist)]->fifo().empty()) {
    rig.sim.run_cycles(*rig.clk, 1);
    ++cycles;
  }
  return cycles;
}

// ---- Shared-bus baseline ----------------------------------------------

double bus_words_per_channel(int channels, int cycles_100mhz) {
  sim::Simulator sim;
  auto& bus_clk = sim.create_domain("bus", 50.0);  // Sedcole's 50 MHz
  baseline::SharedBus bus("bus", bus_clk);
  std::vector<std::unique_ptr<comm::Fifo>> srcs;
  std::vector<std::unique_ptr<comm::Fifo>> dsts;
  for (int c = 0; c < channels; ++c) {
    srcs.push_back(std::make_unique<comm::Fifo>("s", 1 << 20));
    dsts.push_back(std::make_unique<comm::Fifo>("d", 1 << 20));
    for (int w = 0; w < cycles_100mhz; ++w) {
      srcs.back()->push(static_cast<Word>(w));
    }
    bus.add_channel(srcs.back().get(), dsts.back().get());
  }
  // Same wall-clock window as `cycles_100mhz` cycles at 100 MHz.
  sim.run_for(static_cast<sim::Picoseconds>(cycles_100mhz) * 10000);
  return static_cast<double>(bus.total_words()) / channels;
}

// ---- CPU-routed baseline ----------------------------------------------

double cpu_words_per_link(int links, int cycles) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  comm::DcrBus dcr;
  proc::Microblaze mb("mb", clk, dcr);
  std::vector<std::unique_ptr<comm::FslLink>> from;
  std::vector<std::unique_ptr<comm::FslLink>> to;
  std::vector<std::unique_ptr<baseline::CpuRoutedLink>> routers;
  for (int l = 0; l < links; ++l) {
    from.push_back(std::make_unique<comm::FslLink>("f", 1 << 20));
    to.push_back(std::make_unique<comm::FslLink>("t", 1 << 20));
    for (int w = 0; w < cycles; ++w) from.back()->write(1);
    routers.push_back(std::make_unique<baseline::CpuRoutedLink>(
        "r", *from.back(), *to.back()));
    mb.add_task(routers.back().get());
  }
  sim.run_cycles(clk, static_cast<sim::Cycles>(cycles));
  std::uint64_t total = 0;
  for (auto& r : routers) total += r->words_routed();
  return static_cast<double>(total) / links;
}

void print_paper_table() {
  constexpr int kCycles = 20000;  // 200 us at 100 MHz
  const double window_us = kCycles / 100.0;

  std::printf("\n=== E4: communication throughput vs related work "
              "(paper Section II) ===\n");
  std::printf("Window: %.0f us. Per-channel throughput in Mwords/s.\n\n",
              window_us);
  std::printf("%-34s %10s %10s %10s %10s\n", "architecture", "1 ch",
              "2 ch", "3 ch", "4 ch");

  std::printf("%-34s", "VAPRES switch boxes @100MHz");
  for (int ch = 1; ch <= 4; ++ch) {
    const double words = vapres_words_per_channel(ch, 4, kCycles);
    std::printf(" %10.1f", words / window_us);
  }
  std::printf("\n%-34s", "shared TDM bus @50MHz (Sedcole)");
  for (int ch = 1; ch <= 4; ++ch) {
    const double words = bus_words_per_channel(ch, kCycles);
    std::printf(" %10.1f", words / window_us);
  }
  std::printf("\n%-34s", "MicroBlaze-routed (Ullmann)");
  for (int ch = 1; ch <= 4; ++ch) {
    const double words = cpu_words_per_link(ch, kCycles);
    std::printf(" %10.1f", words / window_us);
  }
  std::printf("\n\nShape check (paper): dedicated pipelined channels hold "
              "~100 Mwords/s per channel\nregardless of channel count; the "
              "50 MHz bus starts at half and divides by channel\ncount; "
              "processor routing is ~2 orders of magnitude down.\n");

  std::printf("\n--- first-word latency vs traversed switch boxes (one "
              "register per box) ---\n");
  std::printf("%-10s", "boxes:");
  for (int d = 1; d <= 7; ++d) std::printf(" %6d", d + 1);
  std::printf("\n%-10s", "cycles:");
  for (int d = 1; d <= 7; ++d) std::printf(" %6d", vapres_latency(d));
  std::printf("\n(expected boxes + 2: producer output register + one "
              "register per box + consumer\n FIFO write)\n\n");
}

void BM_VapresChannelThroughput(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  double words = 0;
  for (auto _ : state) {
    words = vapres_words_per_channel(channels, 4, 5000);
  }
  state.counters["Mwords_per_s_per_ch"] = words / 50.0;
}
BENCHMARK(BM_VapresChannelThroughput)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SharedBusThroughput(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  double words = 0;
  for (auto _ : state) words = bus_words_per_channel(channels, 5000);
  state.counters["Mwords_per_s_per_ch"] = words / 50.0;
}
BENCHMARK(BM_SharedBusThroughput)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_paper_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
