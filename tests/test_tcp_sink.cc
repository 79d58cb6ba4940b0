#include "tcp/tcp_sink.h"

#include <gtest/gtest.h>

#include "net/node.h"
#include "phy/channel.h"
#include "routing/static_routing.h"
#include "sim/simulator.h"

namespace muzha {
namespace {

class AckCollector : public Agent {
 public:
  void receive(PacketPtr pkt) override { acks.push_back(std::move(pkt)); }
  const TcpHeader& last() const { return acks.back()->tcp(); }
  std::vector<PacketPtr> acks;
};

class SinkTest : public ::testing::Test {
 protected:
  SinkTest() : channel(sim, PhyParams{}) {
    sender_node = std::make_unique<Node>(sim, channel, 0, Position{0, 0});
    sink_node = std::make_unique<Node>(sim, channel, 1, Position{200, 0});
    auto rs = std::make_unique<StaticRouting>(*sender_node);
    rs->add_route(1, 1);
    sender_node->set_routing(std::move(rs));
    auto rd = std::make_unique<StaticRouting>(*sink_node);
    rd->add_route(0, 0);
    sink_node->set_routing(std::move(rd));

    sender_node->register_agent(1000, acks);
    sink = std::make_unique<TcpSink>(sim, *sink_node, 2000);
    sink->start();
  }

  // Crafts a data segment as the sender's node would emit it.
  PacketPtr data(std::int64_t seq, std::uint8_t avbw = kDraiAggressiveAccel,
                 bool marked = false, SimTime ts = SimTime::from_us(5)) {
    PacketPtr p = sender_node->new_packet(1, IpProto::kTcp, 1500);
    p->ip.avbw_s = avbw;
    p->ip.congestion_marked = marked;
    TcpHeader h;
    h.seqno = seq;
    h.src_port = 1000;
    h.dst_port = 2000;
    h.ts = ts;
    p->l4 = h;
    return p;
  }

  // Injects a segment and waits for its ACK to come back over the air.
  void inject(PacketPtr p) {
    sink->receive(std::move(p));
    sim.run_until(sim.now() + SimTime::from_ms(50));
  }

  Simulator sim{1};
  Channel channel;
  std::unique_ptr<Node> sender_node, sink_node;
  std::unique_ptr<TcpSink> sink;
  AckCollector acks;
};

TEST_F(SinkTest, AcksEveryInOrderSegmentCumulatively) {
  inject(data(0));
  inject(data(1));
  inject(data(2));
  ASSERT_EQ(acks.acks.size(), 3u);
  EXPECT_EQ(acks.acks[0]->tcp().seqno, 0);
  EXPECT_EQ(acks.acks[1]->tcp().seqno, 1);
  EXPECT_EQ(acks.acks[2]->tcp().seqno, 2);
  EXPECT_EQ(sink->delivered(), 3);
}

TEST_F(SinkTest, OutOfOrderGeneratesDuplicateAcks) {
  inject(data(0));
  inject(data(2));
  inject(data(3));
  ASSERT_EQ(acks.acks.size(), 3u);
  EXPECT_EQ(acks.acks[1]->tcp().seqno, 0);  // dup ACK
  EXPECT_EQ(acks.acks[2]->tcp().seqno, 0);  // dup ACK
  EXPECT_EQ(sink->out_of_order_received(), 2u);

  // The hole fills: one cumulative ACK covering the buffered run.
  inject(data(1));
  EXPECT_EQ(acks.last().seqno, 3);
  EXPECT_EQ(sink->delivered(), 4);
}

TEST_F(SinkTest, AlreadyDeliveredSegmentStillAcked) {
  inject(data(0));
  inject(data(0));
  ASSERT_EQ(acks.acks.size(), 2u);
  EXPECT_EQ(acks.last().seqno, 0);
  EXPECT_EQ(sink->duplicates_received(), 1u);
  EXPECT_EQ(sink->delivered(), 1);
}

TEST_F(SinkTest, EchoesTimestampForRttSampling) {
  inject(data(0, kDraiAggressiveAccel, false, SimTime::from_us(1234)));
  EXPECT_EQ(acks.last().ts_echo, SimTime::from_us(1234));
}

TEST_F(SinkTest, EchoesPathMinimumDraiOnEveryAck) {
  inject(data(0, kDraiModerateAccel));
  EXPECT_EQ(acks.last().mrai, kDraiModerateAccel);
  inject(data(1, kDraiModerateDecel));
  EXPECT_EQ(acks.last().mrai, kDraiModerateDecel);
}

TEST_F(SinkTest, MarksDupAcksFromRouterMarkedPackets) {
  inject(data(0));
  // Out-of-order arrival carrying the router's congestion mark.
  inject(data(2, kDraiAggressiveAccel, /*marked=*/true));
  EXPECT_TRUE(acks.last().marked);
}

TEST_F(SinkTest, MarksDupAcksFromDecelerationRegionMrai) {
  inject(data(0));
  inject(data(2, kDraiModerateDecel, /*marked=*/false));
  EXPECT_TRUE(acks.last().marked);  // MRAI <= 2 implies congestion
}

TEST_F(SinkTest, UnmarkedRandomLossDupAcksStayUnmarked) {
  inject(data(0));
  inject(data(2, kDraiModerateAccel, /*marked=*/false));
  EXPECT_EQ(acks.last().seqno, 0);  // duplicate
  EXPECT_FALSE(acks.last().marked);
}

TEST_F(SinkTest, InOrderMarkedPacketsDoNotMarkFreshAcks) {
  inject(data(0, kDraiAggressiveAccel, /*marked=*/true));
  // New cumulative ACK (not a duplicate): marking only applies to dup ACKs.
  EXPECT_FALSE(acks.last().marked);
}

TEST_F(SinkTest, SackBlocksDescribeBufferedRuns) {
  inject(data(0));
  inject(data(2));
  inject(data(3));
  inject(data(5));
  // Trigger run {5,6} first, then other runs most-recent-first.
  const TcpHeader& h = acks.last();
  ASSERT_GE(h.sacks.size(), 2u);
  EXPECT_EQ(h.sacks[0], (SackBlock{5, 6}));
  EXPECT_EQ(h.sacks[1], (SackBlock{2, 4}));
}

TEST_F(SinkTest, SackBlockCountIsBounded) {
  inject(data(0));
  inject(data(2));
  inject(data(4));
  inject(data(6));
  inject(data(8));
  inject(data(10));
  EXPECT_LE(acks.last().sacks.size(), 3u);
  // And the trigger block always leads.
  EXPECT_EQ(acks.last().sacks[0], (SackBlock{10, 11}));
}

TEST_F(SinkTest, DeliveryListenerReportsInOrderBatches) {
  std::vector<std::int64_t> counts;
  sink->set_delivery_listener(
      [&](SimTime, std::int64_t n, std::uint32_t) { counts.push_back(n); });
  inject(data(0));
  inject(data(2));
  inject(data(3));
  inject(data(1));  // releases 1,2,3 at once
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 3);
}

TEST_F(SinkTest, AckRoutingTargetsDataSource) {
  inject(data(0));
  ASSERT_EQ(acks.acks.size(), 1u);
  EXPECT_EQ(acks.acks[0]->ip.dst, 0u);
  EXPECT_TRUE(acks.acks[0]->tcp().is_ack);
  EXPECT_EQ(acks.acks[0]->tcp().dst_port, 1000);
}

}  // namespace
}  // namespace muzha
