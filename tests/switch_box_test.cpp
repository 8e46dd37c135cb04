// Switch-box unit tests: port indexing, mux selects, one-register-per-box
// pipeline latency, and module-interface behaviour (Figure 2/3 details).
// Boxes and interfaces are clocked by the SwitchFabric that owns them, so
// every rig is a small fabric on its own clock domain.
#include <gtest/gtest.h>

#include <memory>

#include "comm/module_interface.hpp"
#include "comm/switch_fabric.hpp"
#include "sim/simulator.hpp"

namespace vapres::comm {
namespace {

/// A clock domain and an `n`-box fabric of `shape` on it.
struct BoxRig {
  sim::Simulator sim;
  sim::ClockDomain& clk;
  SwitchFabric fabric;

  explicit BoxRig(SwitchBoxShape shape, int n = 1)
      : clk(sim.create_domain("clk", 100.0)), fabric(clk, n, shape) {}

  SwitchBox& box(int i = 0) { return fabric.box(i); }
  void run(sim::Cycles cycles) { sim.run_cycles(clk, cycles); }
};

TEST(SwitchBoxShape, PortCounts) {
  const SwitchBoxShape s{2, 2, 1, 1};
  EXPECT_EQ(s.num_inputs(), 5);   // kr + kl + ko
  EXPECT_EQ(s.num_outputs(), 5);  // kr + kl + ki
}

TEST(SwitchBox, PortIndexLayout) {
  BoxRig rig(SwitchBoxShape{2, 2, 1, 1});
  const SwitchBox& box = rig.box();
  EXPECT_EQ(box.input_right_lane(0), 0);
  EXPECT_EQ(box.input_right_lane(1), 1);
  EXPECT_EQ(box.input_left_lane(0), 2);
  EXPECT_EQ(box.input_producer(0), 4);
  EXPECT_EQ(box.output_right_lane(1), 1);
  EXPECT_EQ(box.output_left_lane(1), 3);
  EXPECT_EQ(box.output_consumer(0), 4);
  EXPECT_THROW(box.input_right_lane(2), ModelError);
  EXPECT_THROW(box.output_consumer(1), ModelError);
}

TEST(SwitchBox, ParkedOutputsDriveIdle) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  rig.fabric.eval();
  rig.fabric.commit();
  EXPECT_EQ(*rig.box().output_signal(0), kIdleFlit);
}

TEST(SwitchBox, OneCycleLatencyPerBox) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  SwitchBox& box = rig.box();
  ProducerInterface source("p", 8);
  rig.fabric.attach_producer(0, 0, &source);
  box.select(box.output_right_lane(0), box.input_producer(0));
  source.set_read_enable(true);
  source.fifo().push(42);
  source.fifo().push(43);

  rig.run(1);  // the producer's output register now drives 42
  EXPECT_EQ(*source.output_signal(), (Flit{42, true}));
  rig.run(1);
  // After one edge the input register holds the flit and the output mux
  // shows it.
  EXPECT_EQ(*box.output_signal(box.output_right_lane(0)), (Flit{42, true}));

  EXPECT_EQ(*source.output_signal(), (Flit{43, true}));
  rig.run(1);
  EXPECT_EQ(*box.output_signal(box.output_right_lane(0)), (Flit{43, true}));
}

TEST(SwitchBox, SelectChangesRouteNextCycle) {
  // Box 0 drives rightward lane 0 with 1s and lane 1 with 2s from its two
  // producers; box 1's consumer output picks a lane.
  BoxRig rig(SwitchBoxShape{2, 0, 1, 2}, /*n=*/2);
  SwitchBox& src = rig.box(0);
  SwitchBox& box = rig.box(1);
  ProducerInterface lane0("p0", 16);
  ProducerInterface lane1("p1", 16);
  rig.fabric.attach_producer(0, 0, &lane0);
  rig.fabric.attach_producer(0, 1, &lane1);
  for (int i = 0; i < 8; ++i) {
    lane0.fifo().push(1);
    lane1.fifo().push(2);
  }
  lane0.set_read_enable(true);
  lane1.set_read_enable(true);
  src.select(src.output_right_lane(0), src.input_producer(0));
  src.select(src.output_right_lane(1), src.input_producer(1));
  box.select(box.output_consumer(0), box.input_right_lane(0));
  rig.run(3);  // producer register, box 0, box 1
  EXPECT_EQ(box.output_signal(box.output_consumer(0))->data, 1u);

  box.select(box.output_consumer(0), box.input_right_lane(1));
  rig.run(1);
  EXPECT_EQ(box.output_signal(box.output_consumer(0))->data, 2u);
}

TEST(SwitchBox, RejectsBadSelect) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  SwitchBox& box = rig.box();
  EXPECT_THROW(box.select(0, 99), ModelError);
  EXPECT_THROW(box.select(99, 0), ModelError);
  EXPECT_NO_THROW(box.select(0, -1));
}

// ----------------------------------------------------- ProducerInterface

TEST(ProducerInterface, DrainsOnlyWhenEnabled) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  ProducerInterface p("p", 8);
  rig.fabric.attach_producer(0, 0, &p);
  p.fifo().push(7);
  rig.run(3);
  EXPECT_EQ(p.fifo().size(), 1);  // FIFO_ren off: nothing drained
  EXPECT_FALSE(p.output_signal()->valid);

  p.set_read_enable(true);
  rig.run(1);
  EXPECT_TRUE(p.fifo().empty());
  EXPECT_EQ(*p.output_signal(), (Flit{7, true}));  // bit-extended valid

  rig.run(1);
  EXPECT_FALSE(p.output_signal()->valid);  // FIFO empty -> idle
  EXPECT_EQ(p.words_sent(), 1u);
}

TEST(ProducerInterface, FeedbackFullBlocksDraining) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  ProducerInterface p("p", 8);
  rig.fabric.attach_producer(0, 0, &p);
  bool full = true;
  p.set_feedback_full_source(&full);
  p.set_read_enable(true);
  p.fifo().push(1);
  rig.run(5);
  EXPECT_EQ(p.fifo().size(), 1);  // held back by the feedback signal
  full = false;
  rig.run(1);
  EXPECT_TRUE(p.fifo().empty());
}

TEST(ProducerInterface, ResetClearsOutput) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  ProducerInterface p("p", 8);
  rig.fabric.attach_producer(0, 0, &p);
  p.set_read_enable(true);
  p.fifo().push(5);
  rig.run(1);
  EXPECT_TRUE(p.output_signal()->valid);
  p.reset();
  EXPECT_FALSE(p.output_signal()->valid);
}

// ----------------------------------------------------- ConsumerInterface

TEST(ConsumerInterface, AcceptsOnlyValidFlitsWhenEnabled) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  ConsumerInterface c("c", 8);
  rig.fabric.attach_consumer(0, 0, &c);
  Flit input{};
  c.set_input_signal(&input);

  input = Flit{1, true};
  rig.run(1);
  EXPECT_TRUE(c.fifo().empty());  // FIFO_wen off: word ignored

  c.set_write_enable(true);
  input = Flit{2, true};
  rig.run(1);
  input = Flit{0, false};  // idle flits never written
  rig.run(3);
  EXPECT_EQ(c.fifo().size(), 1);
  EXPECT_EQ(c.fifo().pop(), 2u);
  EXPECT_EQ(c.words_received(), 1u);
}

TEST(ConsumerInterface, DiscardsOnOverflowAndCounts) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  ConsumerInterface c("c", 2);
  rig.fabric.attach_consumer(0, 0, &c);
  c.set_write_enable(true);
  Flit input{9, true};
  c.set_input_signal(&input);
  rig.run(5);  // 2 accepted, 3 discarded
  EXPECT_EQ(c.fifo().size(), 2);
  EXPECT_EQ(c.words_discarded(), 3u);
}

TEST(ConsumerInterface, FeedbackAssertsAtPipelineDepthThreshold) {
  BoxRig rig(SwitchBoxShape{1, 1, 1, 1});
  ConsumerInterface c("c", 16);
  rig.fabric.attach_consumer(0, 0, &c);
  c.set_write_enable(true);
  c.configure_backpressure(/*hops=*/3, BackpressurePolicy::kPipelineDepth);
  Flit input{1, true};
  c.set_input_signal(&input);
  // Threshold: remaining <= 2*3 + 2 = 8, i.e. occupancy >= 8.
  rig.run(7);
  EXPECT_FALSE(*c.full_feedback_signal());
  rig.run(2);  // occupancy 9 -> evaluated at 8
  EXPECT_TRUE(*c.full_feedback_signal());
}

TEST(ConsumerInterface, LiteralPaperPolicyAssertsAlmostAlways) {
  // remaining <= 2*(N - d) with N = 64, d = 2 asserts from occupancy
  // >= N - 2*(N-d) = -60, i.e. immediately — demonstrating why the
  // printed formula cannot be meant literally (see DESIGN.md).
  ConsumerInterface c("c", 64);
  c.configure_backpressure(2, BackpressurePolicy::kLiteralPaper);
  c.eval();
  c.commit();
  EXPECT_TRUE(*c.full_feedback_signal());  // asserted on an empty FIFO
}

}  // namespace
}  // namespace vapres::comm
