// Tests for the related-work protocols of the paper's Ch. 3:
// TCP-DOOR, ADTCP, TCP Jersey and TCP RoVegas.
#include <gtest/gtest.h>

#include "relwork/adtcp.h"
#include "relwork/tcp_door.h"
#include "relwork/tcp_jersey.h"
#include "relwork/tcp_rovegas.h"
#include "relwork/tcp_westwood.h"
#include "routing/static_routing.h"
#include "tests/harness/sender_fixture.h"

namespace muzha {
namespace {

// ---------------------------------------------------------------------------
// TCP-DOOR
// ---------------------------------------------------------------------------

class DoorHarness : public harness::SenderFixture<TcpDoor> {
 public:
  DoorHarness() : harness::SenderFixture<TcpDoor>(make_cfg()) {}
  static TcpConfig make_cfg() {
    TcpConfig cfg;
    cfg.window = 32;
    return cfg;
  }
  void dup_with_seq(std::int64_t ackno, std::uint32_t dup_seq) {
    agent().receive(
        make_ack_with(ackno, [&](TcpHeader& h) { h.dup_seq = dup_seq; }));
  }
};

TEST(TcpDoorTest, DetectsReorderedDupAckStream) {
  DoorHarness h;
  h.start();
  h.ack_each_up_to(9);
  h.dup_with_seq(9, 2);
  h.dup_with_seq(9, 1);  // stream runs backwards: out-of-order delivery
  EXPECT_EQ(h.agent().ooo_events(), 1u);
  EXPECT_TRUE(h.agent().cc_disabled());
}

TEST(TcpDoorTest, DetectsAckRegression) {
  DoorHarness h;
  h.start();
  h.ack_each_up_to(9);
  h.ack(5);  // older than the cumulative point: reordered in flight
  EXPECT_EQ(h.agent().ooo_events(), 1u);
}

TEST(TcpDoorTest, SuppressesDecreaseWhileCcDisabled) {
  DoorHarness h;
  h.start();
  h.ack_each_up_to(9);
  double before = h.agent().cwnd().value();
  h.ack(5);  // OOO event: disable congestion response for t1
  h.dup_acks(9, 3);
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), before);  // no halving
  EXPECT_EQ(h.agent().retransmissions(), 1u);  // still repairs the loss
}

TEST(TcpDoorTest, InstantRecoveryRestoresWindowState) {
  DoorHarness h;
  h.start();
  h.ack_each_up_to(9);
  double before = h.agent().cwnd().value();
  h.dup_acks(9, 3);  // congestion response: cwnd halved-ish
  ASSERT_LT(h.agent().ssthresh().value(), before);
  // Out-of-order evidence arrives shortly after: undo the response.
  h.ack(5);
  EXPECT_EQ(h.agent().instant_recoveries(), 1u);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), before);
  EXPECT_FALSE(h.agent().in_recovery());
}

TEST(TcpDoorTest, NoInstantRecoveryAfterT2Expires) {
  DoorHarness h;
  h.start();
  h.ack_each_up_to(9);
  h.dup_acks(9, 3);
  double in_recovery_cwnd = h.agent().cwnd().value();
  h.run_ms(2500);  // beyond t2 (2 s)
  std::uint64_t timeouts = h.agent().timeouts();
  h.ack(5);
  EXPECT_EQ(h.agent().instant_recoveries(), 0u);
  (void)in_recovery_cwnd;
  (void)timeouts;
}

TEST(TcpDoorTest, BehavesLikeNewRenoWithoutReordering) {
  DoorHarness h;
  h.start();
  h.ack_each_up_to(9);
  double before = h.agent().cwnd().value();
  h.dup_acks(9, 3);
  EXPECT_EQ(h.agent().ooo_events(), 0u);
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().ssthresh().value(), before / 2.0);
}

// ---------------------------------------------------------------------------
// ADTCP sender
// ---------------------------------------------------------------------------

class AdtcpHarness : public harness::SenderFixture<AdtcpSender> {
 public:
  AdtcpHarness() : harness::SenderFixture<AdtcpSender>(make_cfg()) {}
  static TcpConfig make_cfg() {
    TcpConfig cfg;
    cfg.window = 32;
    return cfg;
  }
  void dup_with_state(std::int64_t ackno, AdtcpState st, int n) {
    for (int i = 0; i < n; ++i) {
      agent().receive(
          make_ack_with(ackno, [&](TcpHeader& h) { h.net_state = st; }));
    }
  }
};

TEST(AdtcpSenderTest, CongestionStateTriggersNormalDecrease) {
  AdtcpHarness h;
  h.start();
  h.ack_each_up_to(9);
  double before = h.agent().cwnd().value();
  h.dup_with_state(9, AdtcpState::kCongestion, 3);
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().ssthresh().value(), before / 2.0);
  EXPECT_EQ(h.agent().non_congestion_losses(), 0u);
}

TEST(AdtcpSenderTest, ChannelErrorStateRetransmitsWithoutDecrease) {
  AdtcpHarness h;
  h.start();
  h.ack_each_up_to(9);
  double before = h.agent().cwnd().value();
  h.dup_with_state(9, AdtcpState::kChannelError, 3);
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), before);
  EXPECT_EQ(h.agent().non_congestion_losses(), 1u);
  EXPECT_EQ(h.agent().retransmissions(), 1u);
}

TEST(AdtcpSenderTest, RouteChangeFreezesThroughTimeout) {
  AdtcpHarness h;
  h.start();
  h.ack_each_up_to(9);
  // Tell the sender the network is re-routing, then let the RTO fire.
  h.agent().receive(h.make_ack_with(
      10, [&](TcpHeader& h2) { h2.net_state = AdtcpState::kRouteChange; }));
  double before = h.agent().cwnd().value();
  h.run_ms(4000);
  EXPECT_GE(h.agent().timeouts(), 1u);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), before);  // frozen, not collapsed
}

// ---------------------------------------------------------------------------
// ADTCP sink classification
// ---------------------------------------------------------------------------

class AdtcpSinkTest : public ::testing::Test {
 protected:
  AdtcpSinkTest() : channel(sim, PhyParams{}) {
    src = std::make_unique<Node>(sim, channel, 0, Position{0, 0});
    dst = std::make_unique<Node>(sim, channel, 1, Position{200, 0});
    auto rs = std::make_unique<StaticRouting>(*src);
    rs->add_route(1, 1);
    src->set_routing(std::move(rs));
    auto rd = std::make_unique<StaticRouting>(*dst);
    rd->add_route(0, 0);
    dst->set_routing(std::move(rd));
    sink = std::make_unique<AdtcpSink>(sim, *dst, 2000);
    sink->start();
  }

  void deliver(std::int64_t seq, SimTime sent_at) {
    PacketPtr p = src->new_packet(1, IpProto::kTcp, 1500);
    TcpHeader h;
    h.seqno = seq;
    h.src_port = 1000;
    h.dst_port = 2000;
    h.ts = sent_at;
    p->l4 = h;
    sink->receive(std::move(p));
  }

  void advance_ms(std::int64_t ms) {
    sim.run_until(sim.now() + SimTime::from_ms(ms));
  }

  Simulator sim{1};
  Channel channel;
  std::unique_ptr<Node> src, dst;
  std::unique_ptr<AdtcpSink> sink;
};

TEST_F(AdtcpSinkTest, SteadyStreamIsNormal) {
  for (int i = 0; i < 50; ++i) {
    deliver(i, sim.now() - SimTime::from_ms(20));
    advance_ms(10);
  }
  EXPECT_EQ(sink->state(), AdtcpState::kNormal);
  EXPECT_LT(sink->por(), 0.05);
  EXPECT_LT(sink->plr(), 0.05);
}

TEST_F(AdtcpSinkTest, HeavyReorderingSignalsRouteChange) {
  // Alternate forward/backward sequence numbers inside the window.
  std::int64_t seqs[] = {0, 3, 1, 5, 2, 8, 4, 10, 6, 12, 7, 14, 9, 16, 11};
  for (std::int64_t s : seqs) {
    deliver(s, sim.now() - SimTime::from_ms(20));
    advance_ms(10);
  }
  EXPECT_GT(sink->por(), 0.15);
  EXPECT_EQ(sink->state(), AdtcpState::kRouteChange);
}

TEST_F(AdtcpSinkTest, SequenceGapsSignalChannelError) {
  // Every third segment lost, arrivals otherwise smooth and in order.
  std::int64_t s = 0;
  for (int i = 0; i < 40; ++i) {
    deliver(s, sim.now() - SimTime::from_ms(20));
    s += (i % 3 == 2) ? 2 : 1;  // skip one seq every 3 packets
    advance_ms(10);
  }
  EXPECT_GT(sink->plr(), 0.10);
  EXPECT_EQ(sink->state(), AdtcpState::kChannelError);
}

TEST_F(AdtcpSinkTest, GrowingQueueingDelaySignalsCongestion) {
  // Establish a baseline of smooth arrivals...
  for (int i = 0; i < 60; ++i) {
    deliver(i, sim.now() - SimTime::from_ms(20));
    advance_ms(10);
  }
  ASSERT_EQ(sink->state(), AdtcpState::kNormal);
  // ...then stretch arrival spacing while send spacing stays 10 ms (IDD up,
  // STT down): the congestion signature. Detection is transient — the
  // long-term baselines adapt if congestion persists — so assert the state
  // was reported during the onset.
  std::int64_t seq = 60;
  SimTime send_clock = sim.now();
  bool saw_congestion = false;
  for (int i = 0; i < 25; ++i) {
    deliver(seq++, send_clock);
    send_clock += SimTime::from_ms(10);
    advance_ms(60);
    saw_congestion |= sink->state() == AdtcpState::kCongestion;
  }
  EXPECT_TRUE(saw_congestion);
}

// ---------------------------------------------------------------------------
// TCP Jersey
// ---------------------------------------------------------------------------

class JerseyHarness : public harness::SenderFixture<TcpJersey> {
 public:
  JerseyHarness() : harness::SenderFixture<TcpJersey>(make_cfg()) {}
  static TcpConfig make_cfg() {
    TcpConfig cfg;
    cfg.window = 32;
    return cfg;
  }
  // Acks segment `s` with a realistic timestamp echo so min-RTT is known.
  // muzha-lint: allow(raw-unit-double): harness helper takes RTT-literal seconds, converted to SimTime inside
  void ack_rtt(std::int64_t s, double rtt_s, bool ce = false) {
    agent().receive(make_ack_with(s, [&](TcpHeader& h) {
      h.ts_echo = sim().now() - SimTime::from_seconds(rtt_s);
      h.ce_echo = ce;
    }));
  }
};

TEST(TcpJerseyTest, RateEstimateTracksAckStream) {
  JerseyHarness h;
  h.start();
  h.run_ms(100);
  for (std::int64_t s = 0; s <= 10; ++s) {
    h.ack_rtt(s, 0.050);
    h.run_ms(10);  // one ACK every 10 ms => ~100 segments/s
  }
  EXPECT_GT(h.agent().rate_estimate(), SegmentsPerSecond(20.0));
  EXPECT_LT(h.agent().rate_estimate(), SegmentsPerSecond(200.0));
}

TEST(TcpJerseyTest, DupAcksSetWindowToAbeEstimate) {
  JerseyHarness h;
  h.start();
  h.run_ms(100);
  for (std::int64_t s = 0; s <= 10; ++s) {
    h.ack_rtt(s, 0.050);
    h.run_ms(10);
  }
  Segments ownd = h.agent().abe_window();
  h.dup_acks(10, 3);
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), ownd.value());
  EXPECT_DOUBLE_EQ(h.agent().ssthresh().value(), ownd.value());
}

TEST(TcpJerseyTest, CongestionWarningClampsOncePerRtt) {
  JerseyHarness h;
  h.start();
  h.run_ms(100);
  for (std::int64_t s = 0; s <= 20; ++s) {
    h.ack_rtt(s, 0.050);
    h.run_ms(5);
  }
  double big = h.agent().cwnd().value();
  ASSERT_GT(big, h.agent().abe_window().value());
  h.ack_rtt(21, 0.050, /*ce=*/true);
  EXPECT_EQ(h.agent().cw_clamps(), 1u);
  EXPECT_LE(h.agent().cwnd().value(), big);
  // A second CW echo within the same RTT must not clamp again.
  h.ack_rtt(22, 0.050, /*ce=*/true);
  EXPECT_EQ(h.agent().cw_clamps(), 1u);
}

TEST(TcpJerseyTest, TimeoutUsesAbeAsSsthresh) {
  JerseyHarness h;
  h.start();
  h.run_ms(100);
  for (std::int64_t s = 0; s <= 10; ++s) {
    h.ack_rtt(s, 0.050);
    h.run_ms(10);
  }
  Segments ownd = h.agent().abe_window();
  h.run_ms(4000);
  EXPECT_GE(h.agent().timeouts(), 1u);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 1.0);
  EXPECT_DOUBLE_EQ(h.agent().ssthresh().value(), ownd.value());
}

// ---------------------------------------------------------------------------
// TCP RoVegas
// ---------------------------------------------------------------------------

class RoVegasHarness : public harness::SenderFixture<TcpRoVegas> {
 public:
  RoVegasHarness() : harness::SenderFixture<TcpRoVegas>(make_cfg()) {}
  static TcpConfig make_cfg() {
    TcpConfig cfg;
    cfg.window = 64;
    return cfg;
  }
  // muzha-lint: allow(raw-unit-double): harness helper takes RTT/qdelay-literal seconds, converted to SimTime inside
  void ack_full(std::int64_t s, double rtt_s, double fwd_qdelay_s) {
    agent().receive(make_ack_with(s, [&](TcpHeader& h) {
      h.ts_echo = sim().now() - SimTime::from_seconds(rtt_s);
      h.qdelay_echo = SimTime::from_seconds(fwd_qdelay_s);
    }));
  }
};

TEST(TcpRoVegasTest, IgnoresBackwardPathCongestion) {
  RoVegasHarness h;
  h.start();
  h.run_ms(500);
  // Base RTT 50 ms established; then RTT inflates to 300 ms (ACK-path
  // congestion) while the forward path stays empty (qdelay 0).
  h.ack_full(0, 0.050, 0.0);
  double grown = 0;
  std::int64_t upto = 40;
  for (std::int64_t s = 1; s <= upto; ++s) {
    h.ack_full(s, 0.300, 0.0);
    grown = h.agent().cwnd().value();
  }
  // Plain Vegas would shrink (diff computed from inflated RTT); RoVegas
  // keeps growing because the forward path reports no queueing.
  EXPECT_GT(grown, 4.0);
}

TEST(TcpRoVegasTest, ReactsToForwardPathQueueing) {
  RoVegasHarness h;
  h.start();
  h.run_ms(500);
  h.ack_full(0, 0.050, 0.0);
  // Grow a bit first.
  std::int64_t upto = 12;
  for (std::int64_t s = 1; s <= upto; ++s) h.ack_full(s, 0.050, 0.0);
  double grown = h.agent().cwnd().value();
  // Forward queueing delay appears: diff rises, the window must not grow
  // further (and eventually shrinks).
  upto = h.agent().highest_ack() + 40;
  for (std::int64_t s = h.agent().highest_ack() + 1; s <= upto; ++s) {
    h.ack_full(s, 0.300, 0.250);
  }
  EXPECT_LT(h.agent().cwnd().value(), grown + 1.0);
}

// ---------------------------------------------------------------------------
// TCP Westwood
// ---------------------------------------------------------------------------

class WestwoodHarness : public harness::SenderFixture<TcpWestwood> {
 public:
  WestwoodHarness() : harness::SenderFixture<TcpWestwood>(make_cfg()) {}
  static TcpConfig make_cfg() {
    TcpConfig cfg;
    cfg.window = 32;
    return cfg;
  }
  // muzha-lint: allow(raw-unit-double): harness helper takes RTT-literal seconds, converted to SimTime inside
  void ack_rtt(std::int64_t s, double rtt_s) {
    agent().receive(make_ack_with(s, [&](TcpHeader& h) {
      h.ts_echo = sim().now() - SimTime::from_seconds(rtt_s);
    }));
  }
};

TEST(TcpWestwoodTest, BandwidthEstimateConverges) {
  WestwoodHarness h;
  h.start();
  h.run_ms(100);
  for (std::int64_t s = 0; s <= 40; ++s) {
    h.ack_rtt(s, 0.050);
    h.run_ms(10);  // 100 segments/s steady ACK stream
  }
  EXPECT_GT(h.agent().bandwidth_estimate(), SegmentsPerSecond(50.0));
  EXPECT_LT(h.agent().bandwidth_estimate(), SegmentsPerSecond(150.0));
}

TEST(TcpWestwoodTest, LossSetsSsthreshFromEstimateNotHalf) {
  WestwoodHarness h;
  h.start();
  h.run_ms(100);
  for (std::int64_t s = 0; s <= 20; ++s) {
    h.ack_rtt(s, 0.050);
    h.run_ms(10);
  }
  Segments eligible = h.agent().eligible_window();
  double before = h.agent().cwnd().value();
  h.dup_acks(20, 3);
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().ssthresh().value(), eligible.value());
  EXPECT_LE(h.agent().cwnd().value(), before);
}

TEST(TcpWestwoodTest, TimeoutKeepsEstimateAsSsthresh) {
  WestwoodHarness h;
  h.start();
  h.run_ms(100);
  for (std::int64_t s = 0; s <= 10; ++s) {
    h.ack_rtt(s, 0.050);
    h.run_ms(10);
  }
  Segments eligible = h.agent().eligible_window();
  h.run_ms(4000);
  EXPECT_GE(h.agent().timeouts(), 1u);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 1.0);
  EXPECT_DOUBLE_EQ(h.agent().ssthresh().value(), eligible.value());
}

TEST(TcpRoVegasTest, FallsBackToVegasWithoutRouterSupport) {
  RoVegasHarness h;
  h.start();
  h.run_ms(500);
  // qdelay never set (no router support): compute_diff falls back to the
  // RTT-based Vegas estimate, so slow-start still terminates on queueing.
  h.ack(0);
  EXPECT_GE(h.agent().cwnd().value(), 1.0);  // smoke: no crash, sane window
}

}  // namespace
}  // namespace muzha
