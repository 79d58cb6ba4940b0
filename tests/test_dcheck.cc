// The MUZHA_DCHECK invariant layer: enabled it must abort on violation; in
// release builds it must compile out completely — the condition is not even
// evaluated, so instrumentation on hot paths is free.
#include <gtest/gtest.h>

#include "phy/channel.h"
#include "phy/wireless_phy.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace muzha {
namespace {

TEST(Dcheck, ConditionIsNotEvaluatedWhenCompiledOut) {
  int evaluations = 0;
  auto probe = [&evaluations] {
    ++evaluations;
    return true;
  };
  MUZHA_DCHECK(probe(), "probe must only run when the layer is enabled");
#if MUZHA_DCHECK_ENABLED
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_EQ(evaluations, 0);
#endif
}

TEST(AssertDeathTest, MuzhaAssertIsAlwaysOn) {
  EXPECT_DEATH(MUZHA_ASSERT(false, "always-on tier"), "MUZHA_ASSERT failed");
}

#if MUZHA_DCHECK_ENABLED

TEST(DcheckDeathTest, FailingInvariantAborts) {
  EXPECT_DEATH(MUZHA_DCHECK(1 == 2, "impossible"), "MUZHA_DCHECK failed");
}

TEST(DcheckDeathTest, NegativeTimerDelayIsCaught) {
  Simulator sim;
  Timer t(sim, [] {});
  EXPECT_DEATH(t.schedule_in(SimTime::from_ns(-1)), "non-negative");
}

TEST(DcheckDeathTest, WrongLayerHeaderAccessIsCaught) {
  std::uint64_t uid = 0;
  PacketPtr p = make_packet(uid);  // l4 is monostate: no TCP header
  EXPECT_DEATH(p->tcp(), "layer discipline");
}

TEST(DcheckDeathTest, ChannelDoubleAttachIsCaught) {
  Simulator sim;
  Channel channel(sim, PhyParams{});
  WirelessPhy phy(sim, channel, 0, {0.0, 0.0});  // ctor attaches
  EXPECT_DEATH(channel.attach(phy), "attached twice");
}

TEST(DcheckDeathTest, SackListOverflowIsCaught) {
  SackList sacks;
  for (int i = 0; i < kMaxSackBlocks; ++i) sacks.push_back({i, i + 1});
  EXPECT_DEATH(sacks.push_back({99, 100}), "SackList overflow");
}

#endif  // MUZHA_DCHECK_ENABLED

}  // namespace
}  // namespace muzha
