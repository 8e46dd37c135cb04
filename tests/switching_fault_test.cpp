// Module switching under injected PR failure (the property the overlap
// protocol buys us): if the reconfiguration of the spare PRR fails
// permanently, the switch rolls back cleanly — no channel moved, the
// source module keeps streaming, and the downstream consumer sees an
// uninterrupted, in-order stream. And when the failure is recoverable,
// the switch completes with the stream equally untouched.
#include <gtest/gtest.h>

#include <vector>

#include "core/stats.hpp"
#include "core/switching.hpp"
#include "core/system.hpp"
#include "sim/fault.hpp"
#include "test_util.hpp"

namespace vapres::core {
namespace {

using comm::Word;
using sim::FaultSite;
using sim::RecoveryEvent;

// Downstream words must be 0, 1, 2, ... with no gap, duplicate, or
// reordering — passthrough preserves the counter stream exactly.
void ExpectInOrderCounterStream(const std::vector<Word>& got,
                                std::size_t at_least) {
  ASSERT_GE(got.size(), at_least);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<Word>(i)) << "stream broke at word " << i;
  }
}

class SwitchRollbackProperty : public ::testing::TestWithParam<int> {};

TEST_P(SwitchRollbackProperty, FailedPrRollsBackWithStreamIntact) {
  const int seed = GetParam();
  test::FaultRig rig(static_cast<std::uint64_t>(seed) * 6364136223846793005ULL,
                     "passthrough", "gain_x2");
  // No retries, no fallback: the first corrupted transfer is permanent.
  rig.sys->reconfig().set_retry_policy(
      {.max_attempts = 1, .backoff_base_cycles = 256,
       .fallback_to_cf = false});
  rig.injector().arm(FaultSite::kIcapBitstreamCorruption, /*nth=*/0);

  rig.stream_counter(/*interval=*/2 + seed % 5);
  rig.sys->run_system_cycles(200);  // warm the stream
  rig.iom().reset_gap_stats();

  test::EventCapture events(obs::Subsystem::kSwitch);
  ModuleSwitcher sw(*rig.sys, rig.request("gain_x2"));
  const sim::Picoseconds begun = rig.sys->sim().now();
  ASSERT_TRUE(rig.run_until_finished(sw));
  ASSERT_TRUE(sw.aborted());
  EXPECT_FALSE(sw.done());
  EXPECT_GT(sw.timeline().aborted, sw.timeline().started);
  EXPECT_EQ(sw.timeline().reconfig_done, 0u);   // never reached
  EXPECT_EQ(sw.timeline().input_rerouted, 0u);  // nothing moved

  // Rollback: the original path is exactly as it was.
  Rsb& rsb = rig.sys->rsb();
  EXPECT_TRUE(rsb.channels().active(rig.upstream));
  EXPECT_TRUE(rsb.channels().active(rig.downstream));
  EXPECT_EQ(rsb.prr(1).loaded_module(), "");  // spare stayed empty
  const auto src_sock = rig.sys->dcr().read(rsb.prr_socket_address(0));
  EXPECT_EQ(src_sock & (PrSocket::kSmEn | PrSocket::kClkEn),
            PrSocket::kSmEn | PrSocket::kClkEn);

  // The scoreboard shows one rollback, one permanent PR failure.
  EXPECT_EQ(rig.injector().recoveries(RecoveryEvent::kSwitchRollback), 1u);
  EXPECT_EQ(rig.sys->reconfig().failures(), 1);
  EXPECT_EQ(collect_stats(*rig.sys).robustness.switch_rollbacks, 1u);
  // The trace records the rollback once, naming the spare PRR.
  const auto rollbacks = events.instants(obs::ev::kSwitchRollback);
  ASSERT_EQ(rollbacks.size(), 1u);
  EXPECT_EQ(rollbacks[0].arg0, 1u);
  EXPECT_GT(rollbacks[0].time_ps, begun);
  EXPECT_LE(rollbacks[0].time_ps, rig.sys->sim().now());

  // The stream never noticed: let it run on, then check order and gaps.
  rig.sys->run_system_cycles(3000);
  ExpectInOrderCounterStream(rig.iom().received(), 200);
  EXPECT_LE(rig.iom().max_output_gap(), 400u) << "stream interrupted";
  EXPECT_EQ(rig.iom().source_stall_cycles(), 0u);
  EXPECT_EQ(collect_stats(*rig.sys).total_discarded(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchRollbackProperty,
                         ::testing::Range(1, 7));

TEST(SwitchingFault, RecoverablePrFaultStillCompletesTheSwitch) {
  test::FaultRig rig(0xACE5u, "passthrough", "passthrough");
  // Two corrupted attempts; the default policy's third attempt lands.
  rig.injector().arm(FaultSite::kIcapBitstreamCorruption, /*nth=*/0,
                     /*count=*/2);

  rig.stream_counter(/*interval=*/4);
  rig.sys->run_system_cycles(200);
  rig.iom().reset_gap_stats();

  ModuleSwitcher sw(*rig.sys, rig.request("passthrough"));
  ASSERT_TRUE(rig.run_until_finished(sw));
  ASSERT_TRUE(sw.done());
  EXPECT_FALSE(sw.aborted());

  // The switch really happened despite the faults ...
  Rsb& rsb = rig.sys->rsb();
  EXPECT_EQ(rsb.prr(1).loaded_module(), "passthrough");
  EXPECT_TRUE(rsb.channels().active(sw.new_upstream()));
  EXPECT_FALSE(rsb.channels().active(rig.upstream));
  EXPECT_EQ(rig.sys->reconfig().retries(), 2);
  EXPECT_EQ(rig.injector().recoveries(RecoveryEvent::kIcapRetry), 2u);
  EXPECT_EQ(rig.injector().recoveries(RecoveryEvent::kSwitchRollback), 0u);

  // ... and the stream is still the unbroken counter, with the usual
  // no-interruption bound despite the PR taking three attempts.
  rig.sys->run_system_cycles(3000);
  ExpectInOrderCounterStream(rig.iom().received(), 500);
  EXPECT_LE(rig.iom().max_output_gap(), 400u) << "stream interrupted";
  EXPECT_EQ(rig.iom().source_stall_cycles(), 0u);
}

TEST(SwitchingFault, AbortedSwitcherStaysTerminal) {
  test::FaultRig rig(0xBEEFu, "passthrough", "gain_x2");
  rig.sys->reconfig().set_retry_policy(
      {.max_attempts = 1, .backoff_base_cycles = 256,
       .fallback_to_cf = false});
  rig.injector().arm(FaultSite::kIcapBitstreamCorruption, /*nth=*/0);
  rig.stream_counter();

  ModuleSwitcher sw(*rig.sys, rig.request("gain_x2"));
  ASSERT_TRUE(rig.run_until_finished(sw));
  ASSERT_TRUE(sw.aborted());
  EXPECT_TRUE(sw.finished());
  const auto stamp = sw.timeline().aborted;
  // More simulation does not resurrect the task or move its stamps.
  rig.sys->run_system_cycles(2000);
  EXPECT_TRUE(sw.aborted());
  EXPECT_EQ(sw.timeline().aborted, stamp);
  EXPECT_EQ(sw.timeline().completed, 0u);
}

}  // namespace
}  // namespace vapres::core
