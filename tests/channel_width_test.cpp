// Channel-width (w) tests: the Figure 7 parameter w sets the physical
// payload width of every streaming channel. Narrow channels truncate
// words at the producer interface, and the end-of-stream word is
// all-ones *at channel width*.
#include <gtest/gtest.h>

#include <optional>

#include "comm/flit.hpp"
#include "comm/switch_fabric.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"

namespace vapres::core {
namespace {

using comm::Word;

SystemParams narrow_params(int width_bits) {
  SystemParams p = SystemParams::prototype();
  p.rsbs[0].width_bits = width_bits;
  p.rsbs[0].prr_width_clbs = 2;
  return p;
}

TEST(ChannelWidth, Masks) {
  EXPECT_EQ(comm::payload_mask(32), 0xFFFFFFFFu);
  EXPECT_EQ(comm::payload_mask(16), 0x0000FFFFu);
  EXPECT_EQ(comm::payload_mask(8), 0x000000FFu);
  EXPECT_EQ(comm::payload_mask(1), 0x00000001u);
  EXPECT_EQ(comm::eos_word(16), 0xFFFFu);
  EXPECT_EQ(comm::eos_word(32), comm::kEndOfStreamWord);
}

TEST(ChannelWidth, ProducerInterfaceTruncates) {
  sim::Simulator sim;
  auto& clk = sim.create_domain("clk", 100.0);
  comm::SwitchFabric fabric(clk, 1, comm::SwitchBoxShape{1, 1, 1, 1});
  comm::ProducerInterface p("p", 8, /*width_bits=*/16);
  fabric.attach_producer(0, 0, &p);
  p.set_read_enable(true);
  p.fifo().push(0x12345678u);
  sim.run_cycles(clk, 1);
  EXPECT_EQ(*p.output_signal(), (comm::Flit{0x5678u, true}));
  EXPECT_EQ(p.width_bits(), 16);
}

TEST(ChannelWidth, RejectsBadWidths) {
  EXPECT_THROW(comm::ProducerInterface("p", 8, 0), ModelError);
  EXPECT_THROW(comm::ProducerInterface("p", 8, 33), ModelError);
}

TEST(ChannelWidth, SixteenBitSystemTruncatesEndToEnd) {
  VapresSystem sys(narrow_params(16));
  sys.bring_up_all_sites();
  sys.reconfigure_now(0, 0, "passthrough");
  Rsb& rsb = sys.rsb();
  ASSERT_TRUE(sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0)));
  ASSERT_TRUE(sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0)));
  sys.rsb().iom(0).set_source_data({0x00010002u, 0xABCD1234u, 0x0000FFFEu});
  sys.run_system_cycles(200);
  EXPECT_EQ(sys.rsb().iom(0).received(),
            (std::vector<Word>{0x0002u, 0x1234u, 0xFFFEu}));
}

TEST(ChannelWidth, EosDetectedAtChannelWidth) {
  // The full Figure 5 protocol on a 16-bit RSB: the module's 32-bit EOS
  // word truncates to 0xFFFF on the wire and the IOM still detects it.
  VapresSystem sys(narrow_params(16));
  sys.bring_up_all_sites();
  sys.reconfigure_now(0, 0, "passthrough");
  sys.preload_sdram("passthrough", 0, 1);
  Rsb& rsb = sys.rsb();
  const auto up = *sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0));
  const auto down =
      *sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0));
  int n = 0;
  rsb.iom(0).set_source_generator(
      [&n]() -> std::optional<Word> {
        return static_cast<Word>(n++ & 0x7FFF);  // never the EOS pattern
      },
      4);

  SwitchRequest req;
  req.src_prr = 0;
  req.dst_prr = 1;
  req.new_module_id = "passthrough";
  req.upstream = up;
  req.downstream = down;
  ModuleSwitcher sw(*&sys, req);
  sw.begin();
  ASSERT_TRUE(sys.sim().run_until([&] { return sw.done(); },
                                  sim::kPsPerSecond * 60));
  EXPECT_EQ(rsb.iom(0).eos_seen(), 1u);
  // No data word was mistaken for EOS and dropped.
  const auto& rx = rsb.iom(0).received();
  for (std::size_t i = 0; i < rx.size(); ++i) {
    EXPECT_EQ(rx[i], static_cast<Word>(i & 0x7FFF));
  }
}

TEST(ChannelWidth, EightBitSystemStreams) {
  VapresSystem sys(narrow_params(8));
  sys.bring_up_all_sites();
  sys.reconfigure_now(0, 0, "offset_100");
  Rsb& rsb = sys.rsb();
  ASSERT_TRUE(sys.connect(0, rsb.iom_producer(0), rsb.prr_consumer(0)));
  ASSERT_TRUE(sys.connect(0, rsb.prr_producer(0), rsb.iom_consumer(0)));
  sys.rsb().iom(0).set_source_data({1, 2, 3});
  sys.run_system_cycles(200);
  // offset_100 adds 100 inside the PRR (32-bit internally); the result
  // is truncated to 8 bits on the way out.
  EXPECT_EQ(sys.rsb().iom(0).received(),
            (std::vector<Word>{101 & 0xFF, 102 & 0xFF, 103 & 0xFF}));
}

}  // namespace
}  // namespace vapres::core
