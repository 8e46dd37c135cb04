// Switch-fabric integration tests: route configuration, conflicts,
// pipelined streaming, and the backpressure zero-loss property sweeps
// that substantiate the Section III.B protocol.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "comm/fabric_dump.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace vapres::comm {
namespace {

using test::FabricRig;

RouteSpec simple_route(int from, int to, int lane = 0) {
  RouteSpec spec;
  spec.producer_box = from;
  spec.consumer_box = to;
  spec.lanes.assign(static_cast<std::size_t>(std::abs(to - from)), lane);
  return spec;
}

TEST(RouteSpec, Geometry) {
  EXPECT_EQ(simple_route(0, 3).segments(), 3);
  EXPECT_EQ(simple_route(0, 3).hops(), 4);
  EXPECT_TRUE(simple_route(0, 3).rightward());
  EXPECT_FALSE(simple_route(3, 0).rightward());
  EXPECT_EQ(simple_route(2, 2).hops(), 1);
}

TEST(SwitchFabric, EstablishAndStreamRightward) {
  FabricRig rig(3);
  const RouteId id = rig.fabric->establish(simple_route(0, 2));
  rig.producers[0]->set_read_enable(true);
  rig.consumers[2]->set_write_enable(true);
  for (Word w = 0; w < 10; ++w) rig.producers[0]->fifo().push(100 + w);
  rig.run(20);
  const auto out = rig.drain(2);
  ASSERT_EQ(out.size(), 10u);
  for (Word w = 0; w < 10; ++w) EXPECT_EQ(out[w], 100 + w);
  EXPECT_EQ(rig.consumers[2]->words_discarded(), 0u);
  rig.fabric->release(id);
}

TEST(SwitchFabric, EstablishAndStreamLeftward) {
  FabricRig rig(4);
  rig.fabric->establish(simple_route(3, 0));
  rig.producers[3]->set_read_enable(true);
  rig.consumers[0]->set_write_enable(true);
  for (Word w = 0; w < 5; ++w) rig.producers[3]->fifo().push(w);
  rig.run(20);
  EXPECT_EQ(rig.drain(0), (std::vector<Word>{0, 1, 2, 3, 4}));
}

TEST(SwitchFabric, PipelineLatencyIsHopsPlusInterfaceStages) {
  // Producer output register + one register per box: first word reaches
  // the consumer FIFO hops + 2 cycles after enabling.
  for (int dist = 1; dist <= 4; ++dist) {
    FabricRig rig(5);
    rig.fabric->establish(simple_route(0, dist));
    rig.consumers[dist]->set_write_enable(true);
    rig.producers[0]->fifo().push(7);
    rig.producers[0]->set_read_enable(true);
    const int hops = dist + 1;
    rig.run(static_cast<sim::Cycles>(hops + 1));
    EXPECT_TRUE(rig.consumers[dist]->fifo().empty())
        << "word arrived early at distance " << dist;
    rig.run(1);
    EXPECT_EQ(rig.consumers[dist]->fifo().size(), 1)
        << "word late at distance " << dist;
  }
}

TEST(SwitchFabric, FullThroughputOneWordPerCycle) {
  FabricRig rig(4);
  rig.fabric->establish(simple_route(0, 3));
  rig.producers[0]->set_read_enable(true);
  rig.consumers[3]->set_write_enable(true);
  // Keep the producer fed; drain the consumer every cycle.
  std::uint64_t received = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    if (!rig.producers[0]->fifo().full()) {
      rig.producers[0]->fifo().push(static_cast<Word>(cycle));
    }
    rig.run(1);
    received += rig.drain(3).size();
  }
  // Pipeline fill is ~5 cycles; everything after flows at 1 word/cycle.
  EXPECT_GE(received, 190u);
}

TEST(SwitchFabric, TwoConcurrentChannelsDoNotInterfere) {
  FabricRig rig(4, SwitchBoxShape{2, 2, 1, 1});
  rig.fabric->establish(simple_route(0, 3, /*lane=*/0));
  rig.fabric->establish(simple_route(1, 2, /*lane=*/1));
  rig.producers[0]->set_read_enable(true);
  rig.producers[1]->set_read_enable(true);
  rig.consumers[3]->set_write_enable(true);
  rig.consumers[2]->set_write_enable(true);
  for (Word w = 0; w < 20; ++w) {
    rig.producers[0]->fifo().push(1000 + w);
    rig.producers[1]->fifo().push(2000 + w);
  }
  rig.run(40);
  const auto a = rig.drain(3);
  const auto b = rig.drain(2);
  ASSERT_EQ(a.size(), 20u);
  ASSERT_EQ(b.size(), 20u);
  EXPECT_EQ(a.front(), 1000u);
  EXPECT_EQ(b.front(), 2000u);
}

TEST(SwitchFabric, LaneConflictRejected) {
  FabricRig rig(3, SwitchBoxShape{1, 1, 1, 1});
  rig.fabric->establish(simple_route(0, 2, 0));
  EXPECT_THROW(rig.fabric->establish(simple_route(0, 1, 0)), ModelError);
  EXPECT_THROW(rig.fabric->establish(simple_route(1, 2, 0)), ModelError);
  // Opposite direction uses separate lanes: fine.
  EXPECT_NO_THROW(rig.fabric->establish(simple_route(2, 0, 0)));
}

TEST(SwitchFabric, ReleaseFreesLanes) {
  FabricRig rig(3, SwitchBoxShape{1, 1, 1, 1});
  const RouteId id = rig.fabric->establish(simple_route(0, 2, 0));
  rig.fabric->release(id);
  EXPECT_NO_THROW(rig.fabric->establish(simple_route(0, 2, 0)));
  EXPECT_THROW(rig.fabric->release(id), ModelError);
}

TEST(SwitchFabric, RouteValidation) {
  FabricRig rig(3);
  RouteSpec bad = simple_route(0, 2);
  bad.lanes.pop_back();
  EXPECT_THROW(rig.fabric->establish(bad), ModelError);
  bad = simple_route(0, 2, 5);  // lane out of range
  EXPECT_THROW(rig.fabric->establish(bad), ModelError);
  bad = simple_route(0, 7);
  EXPECT_THROW(rig.fabric->establish(bad), ModelError);
}

TEST(SwitchFabric, TooShallowConsumerFifoRejected) {
  // depth 8 cannot absorb the in-flight window of a 3-box route
  // (2*3 + 2 = 8 words): establishment must fail loudly, not deadlock.
  FabricRig rig(3, SwitchBoxShape{2, 2, 1, 1}, /*fifo_depth=*/8);
  EXPECT_THROW(rig.fabric->establish(simple_route(0, 2)), ModelError);
  // One hop needs only > 4: fine.
  EXPECT_NO_THROW(rig.fabric->establish(simple_route(0, 1)));
}

TEST(SwitchFabric, SameBoxLoopbackSupportedAtFabricLevel) {
  FabricRig rig(2);
  rig.fabric->establish(simple_route(1, 1));
  rig.producers[1]->set_read_enable(true);
  rig.consumers[1]->set_write_enable(true);
  rig.producers[1]->fifo().push(5);
  rig.run(5);
  EXPECT_EQ(rig.drain(1), (std::vector<Word>{5}));
}

TEST(FabricDump, RendersRoutesSymbolically) {
  FabricRig rig(3, SwitchBoxShape{2, 2, 1, 1});
  const std::string before = dump_fabric(*rig.fabric);
  EXPECT_NE(before.find("all outputs parked"), std::string::npos);
  EXPECT_NE(before.find("0 active route(s)"), std::string::npos);

  rig.fabric->establish(simple_route(0, 2, /*lane=*/1));
  const std::string after = dump_fabric(*rig.fabric);
  EXPECT_NE(after.find("1 active route(s)"), std::string::npos);
  EXPECT_NE(after.find("R1<-P0"), std::string::npos);  // source box
  EXPECT_NE(after.find("R1<-R1"), std::string::npos);  // middle box
  EXPECT_NE(after.find("C0<-R1"), std::string::npos);  // sink box
}

TEST(FabricDump, PortNames) {
  FabricRig rig(1, SwitchBoxShape{2, 2, 1, 1});
  const SwitchBox& box = rig.fabric->box(0);
  EXPECT_EQ(input_port_name(box, 0), "R0");
  EXPECT_EQ(input_port_name(box, 2), "L0");
  EXPECT_EQ(input_port_name(box, 4), "P0");
  EXPECT_EQ(output_port_name(box, 3), "L1");
  EXPECT_EQ(output_port_name(box, 4), "C0");
  EXPECT_THROW(input_port_name(box, 9), ModelError);
}

// ------------------------------------------------------ zero-loss property
//
// For every (distance, consumer FIFO depth, drain pattern): a producer
// streaming at full rate into a consumer that drains slowly must never
// drop a word — the pipelined feedback-full signal throttles the producer
// in time (Section III.B). This is the property the paper's 2*(N-d)
// formula is *for*; we verify the implemented threshold delivers it.

class BackpressureSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BackpressureSweep, NoWordEverDropped) {
  const auto [distance, depth, drain_every] = GetParam();
  FabricRig rig(distance + 1, SwitchBoxShape{2, 2, 1, 1}, depth);
  rig.fabric->establish(simple_route(0, distance));
  rig.producers[0]->set_read_enable(true);
  rig.consumers[static_cast<std::size_t>(distance)]->set_write_enable(true);

  constexpr int kWords = 400;
  Word next_push = 0;
  std::vector<Word> received;
  int cycle = 0;
  while (static_cast<int>(received.size()) < kWords && cycle < 100000) {
    if (next_push < kWords && !rig.producers[0]->fifo().full()) {
      rig.producers[0]->fifo().push(next_push++);
    }
    rig.run(1);
    ++cycle;
    if (cycle % drain_every == 0) {
      auto& fifo = rig.consumers[static_cast<std::size_t>(distance)]->fifo();
      if (!fifo.empty()) received.push_back(fifo.pop());
    }
  }

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kWords))
      << "stream did not complete";
  for (int i = 0; i < kWords; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], static_cast<Word>(i));
  }
  EXPECT_EQ(rig.consumers[static_cast<std::size_t>(distance)]
                ->words_discarded(),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    DistanceDepthDrain, BackpressureSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7),      // distance
                       ::testing::Values(32, 64, 512),        // FIFO depth
                       ::testing::Values(1, 3, 7)),           // drain period
    [](const auto& param_info) {
      return "d" + std::to_string(std::get<0>(param_info.param)) + "_n" +
             std::to_string(std::get<1>(param_info.param)) + "_r" +
             std::to_string(std::get<2>(param_info.param));
    });

// The conservative half-capacity policy must also never drop a word.
class HalfCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(HalfCapacitySweep, NoWordEverDropped) {
  const int distance = GetParam();
  FabricRig rig(distance + 1, SwitchBoxShape{2, 2, 1, 1}, /*depth=*/64);
  rig.fabric->establish(simple_route(0, distance),
                        BackpressurePolicy::kHalfCapacity);
  rig.producers[0]->set_read_enable(true);
  rig.consumers[static_cast<std::size_t>(distance)]->set_write_enable(true);

  constexpr int kWords = 300;
  Word next_push = 0;
  std::vector<Word> received;
  int cycle = 0;
  while (static_cast<int>(received.size()) < kWords && cycle < 100000) {
    if (next_push < kWords && !rig.producers[0]->fifo().full()) {
      rig.producers[0]->fifo().push(next_push++);
    }
    rig.run(1);
    ++cycle;
    if (cycle % 5 == 0) {
      auto& fifo = rig.consumers[static_cast<std::size_t>(distance)]->fifo();
      if (!fifo.empty()) received.push_back(fifo.pop());
    }
  }
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kWords));
  for (int i = 0; i < kWords; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], static_cast<Word>(i));
  }
  EXPECT_EQ(rig.consumers[static_cast<std::size_t>(distance)]
                ->words_discarded(),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Distances, HalfCapacitySweep,
                         ::testing::Values(1, 3, 7));

// Random bursty traffic: conservation + ordering, many seeds.
class RandomTrafficSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomTrafficSweep, ConservationAndOrdering) {
  sim::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()));
  const int distance = 1 + static_cast<int>(rng.next_below(6));
  const int depth = 32 << rng.next_below(3);
  FabricRig rig(distance + 1, SwitchBoxShape{2, 2, 1, 1}, depth);
  rig.fabric->establish(simple_route(0, distance));
  rig.producers[0]->set_read_enable(true);
  rig.consumers[static_cast<std::size_t>(distance)]->set_write_enable(true);

  Word next_push = 0;
  std::vector<Word> received;
  for (int cycle = 0; cycle < 5000; ++cycle) {
    if (rng.chance(0.7) && !rig.producers[0]->fifo().full()) {
      rig.producers[0]->fifo().push(next_push++);
    }
    rig.run(1);
    if (rng.chance(0.4)) {
      auto& fifo = rig.consumers[static_cast<std::size_t>(distance)]->fifo();
      if (!fifo.empty()) received.push_back(fifo.pop());
    }
  }
  // Drain everything still buffered in the producer FIFO, the pipeline,
  // and the consumer FIFO (repeat until no progress).
  for (int round = 0; round < 16; ++round) {
    rig.run(static_cast<sim::Cycles>(2 * depth + 100));
    const auto batch = rig.drain(distance);
    if (batch.empty()) break;
    received.insert(received.end(), batch.begin(), batch.end());
  }

  ASSERT_EQ(received.size(), static_cast<std::size_t>(next_push));
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i], static_cast<Word>(i));
  }
  EXPECT_EQ(rig.consumers[static_cast<std::size_t>(distance)]
                ->words_discarded(),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTrafficSweep,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace vapres::comm
