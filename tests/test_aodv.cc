#include "routing/aodv.h"

#include <gtest/gtest.h>

#include "net/node.h"
#include "net/trace.h"
#include "phy/channel.h"
#include "sim/simulator.h"

namespace muzha {
namespace {

class CollectAgent : public Agent {
 public:
  void receive(PacketPtr pkt) override { got.push_back(std::move(pkt)); }
  std::vector<PacketPtr> got;
};

// A chain of nodes with AODV installed; node i sits at (250*i, 0).
class AodvTest : public ::testing::Test {
 protected:
  void build(int n) {
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Node>(
          sim, channel, static_cast<NodeId>(i), Position{250.0 * i, 0}));
      auto aodv = std::make_unique<Aodv>(sim, *nodes.back());
      aodvs.push_back(aodv.get());
      nodes.back()->set_routing(std::move(aodv));
    }
  }

  PacketPtr tcp_packet(Node& from, NodeId to, std::uint16_t port) {
    PacketPtr p = from.new_packet(to, IpProto::kTcp, 500);
    TcpHeader h;
    h.dst_port = port;
    p->l4 = h;
    return p;
  }

  Simulator sim{1};
  PhyParams phy_params;
  Channel channel{sim, phy_params};
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<Aodv*> aodvs;
};

TEST_F(AodvTest, DiscoversRouteAndDeliversBufferedPacket) {
  build(4);
  CollectAgent sink;
  nodes[3]->register_agent(80, sink);
  nodes[0]->send(tcp_packet(*nodes[0], 3, 80));
  sim.run_until(SimTime::from_seconds(2));
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_TRUE(aodvs[0]->has_valid_route(3));
  EXPECT_EQ(aodvs[0]->rreqs_originated(), 1u);
  // The destination answered with exactly one RREP.
  EXPECT_EQ(aodvs[3]->rreps_sent(), 1u);
}

TEST_F(AodvTest, RouteIsShortestPath) {
  build(5);
  CollectAgent sink;
  nodes[4]->register_agent(80, sink);
  nodes[0]->send(tcp_packet(*nodes[0], 4, 80));
  sim.run_until(SimTime::from_seconds(2));
  const Aodv::Route* r = aodvs[0]->find_route(4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->hops, 4);
  EXPECT_EQ(r->next_hop, 1u);
}

TEST_F(AodvTest, ReverseRouteEstablishedAtDestination) {
  build(3);
  CollectAgent sink;
  nodes[2]->register_agent(80, sink);
  nodes[0]->send(tcp_packet(*nodes[0], 2, 80));
  // Check within the reverse route's (deliberately short) RFC lifetime of
  // 2 * net-traversal-time.
  sim.run_until(SimTime::from_ms(500));
  EXPECT_TRUE(aodvs[2]->has_valid_route(0));
  // And per RFC 3561 it expires if unused.
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_FALSE(aodvs[2]->has_valid_route(0));
}

TEST_F(AodvTest, SecondPacketUsesCachedRouteWithoutNewRreq) {
  build(3);
  CollectAgent sink;
  nodes[2]->register_agent(80, sink);
  nodes[0]->send(tcp_packet(*nodes[0], 2, 80));
  sim.run_until(SimTime::from_seconds(2));
  ASSERT_EQ(aodvs[0]->rreqs_originated(), 1u);
  nodes[0]->send(tcp_packet(*nodes[0], 2, 80));
  sim.run_until(SimTime::from_seconds(4));
  EXPECT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(aodvs[0]->rreqs_originated(), 1u);  // cache hit
}

TEST_F(AodvTest, UnreachableDestinationFailsDiscoveryAfterRetries) {
  build(2);
  // Destination id 9 does not exist.
  nodes[0]->send(tcp_packet(*nodes[0], 9, 80));
  sim.run_until(SimTime::from_seconds(30));
  EXPECT_EQ(aodvs[0]->discovery_failures(), 1u);
  // 1 initial + 2 retries.
  EXPECT_EQ(aodvs[0]->rreqs_originated(), 3u);
  // The one buffered packet went with the failed discovery.
  EXPECT_EQ(nodes[0]->count(TraceEventKind::kDropDiscovery), 1u);
  EXPECT_FALSE(aodvs[0]->has_valid_route(9));
}

TEST_F(AodvTest, LinkFailureInvalidatesRoutesAndSendsRerr) {
  build(4);
  CollectAgent sink;
  nodes[3]->register_agent(80, sink);
  nodes[0]->send(tcp_packet(*nodes[0], 3, 80));
  sim.run_until(SimTime::from_seconds(2));
  ASSERT_TRUE(aodvs[1]->has_valid_route(3));

  // Simulate MAC retry exhaustion at node 1 toward node 2.
  aodvs[1]->on_link_failure(2, nullptr);
  EXPECT_FALSE(aodvs[1]->has_valid_route(3));
  EXPECT_EQ(aodvs[1]->rerrs_sent(), 1u);
  sim.run_until(SimTime::from_seconds(3));
  // The RERR propagated upstream: node 0 dropped its route too.
  EXPECT_FALSE(aodvs[0]->has_valid_route(3));
}

TEST_F(AodvTest, RediscoveryAfterLinkFailure) {
  build(4);
  CollectAgent sink;
  nodes[3]->register_agent(80, sink);
  nodes[0]->send(tcp_packet(*nodes[0], 3, 80));
  sim.run_until(SimTime::from_seconds(2));
  aodvs[1]->on_link_failure(2, nullptr);
  sim.run_until(SimTime::from_seconds(3));
  ASSERT_FALSE(aodvs[0]->has_valid_route(3));

  // Sending again triggers a fresh discovery that succeeds (links are fine;
  // the "failure" was transient contention).
  nodes[0]->send(tcp_packet(*nodes[0], 3, 80));
  sim.run_until(SimTime::from_seconds(6));
  EXPECT_TRUE(aodvs[0]->has_valid_route(3));
  EXPECT_EQ(sink.got.size(), 2u);
}

TEST_F(AodvTest, OriginatorSalvagesFailedPacketViaRediscovery) {
  build(3);
  CollectAgent sink;
  nodes[2]->register_agent(80, sink);
  nodes[0]->send(tcp_packet(*nodes[0], 2, 80));
  sim.run_until(SimTime::from_seconds(2));
  ASSERT_EQ(sink.got.size(), 1u);

  // Hand a locally-originated packet back as a link failure: AODV should
  // re-discover and re-send rather than drop.
  aodvs[0]->on_link_failure(1, tcp_packet(*nodes[0], 2, 80));
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(sink.got.size(), 2u);
}

TEST_F(AodvTest, IntermediateNodeWithFreshRouteAnswersRreq) {
  build(4);
  CollectAgent sink;
  nodes[3]->register_agent(80, sink);
  // Prime node 1 with a route to 3 by running a discovery from node 0.
  nodes[0]->send(tcp_packet(*nodes[0], 3, 80));
  sim.run_until(SimTime::from_seconds(2));
  std::uint64_t rreps_from_dest = aodvs[3]->rreps_sent();

  // New discovery from node 1 itself: it already has a valid fresh route,
  // so route_packet short-circuits; force a fresh RREQ by asking node 0 to
  // discover again after invalidating only node 0's route.
  aodvs[0]->on_link_failure(1, nullptr);
  nodes[0]->send(tcp_packet(*nodes[0], 3, 80));
  sim.run_until(SimTime::from_seconds(4));
  EXPECT_EQ(sink.got.size(), 2u);
  // The destination did not need to answer again: an intermediate replied.
  EXPECT_EQ(aodvs[3]->rreps_sent() + aodvs[1]->rreps_sent() +
                aodvs[2]->rreps_sent(),
            rreps_from_dest + 1);
}

TEST_F(AodvTest, DuplicateRreqsAreSuppressed) {
  build(4);
  CollectAgent sink;
  nodes[3]->register_agent(80, sink);
  nodes[0]->send(tcp_packet(*nodes[0], 3, 80));
  sim.run_until(SimTime::from_seconds(2));
  // Each intermediate node rebroadcast the flood exactly once: total
  // broadcast data frames = origin (1) + rebroadcasts (nodes 1, 2; node 3 is
  // the destination and replies instead). RREPs/data are unicast and counted
  // separately via rts_sent.
  std::uint64_t total_bcast = 0;
  for (auto& n : nodes) {
    total_bcast +=
        n->device().mac().data_frames_sent() - n->device().mac().rts_sent();
  }
  // Origin + 2 rebroadcasts + destination reply does not rebroadcast.
  // (data_frames_sent - rts_sent roughly counts broadcasts since every
  // unicast data frame was preceded by one RTS here; allow slack for MAC
  // retries.)
  EXPECT_LE(total_bcast, 6u);
}

TEST_F(AodvTest, BufferCapacityDropsExcessPackets) {
  build(2);
  // No route yet: every packet is buffered while discovery runs; overflow
  // beyond the 64-packet send buffer is dropped. Destination 9 never
  // answers.
  for (int i = 0; i < 70; ++i) {
    nodes[0]->send(tcp_packet(*nodes[0], 9, 80));
  }
  EXPECT_EQ(nodes[0]->count(TraceEventKind::kDropSendBuffer), 6u);
  // The 64 it holds go when the discovery fails.
  sim.run_until(SimTime::from_seconds(30));
  EXPECT_EQ(nodes[0]->count(TraceEventKind::kDropDiscovery), 64u);
}

}  // namespace
}  // namespace muzha
