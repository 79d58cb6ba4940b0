// Packet tracing tests: every milestone of a packet's life is observable.
#include <gtest/gtest.h>

#include "net/node.h"
#include "phy/channel.h"
#include "routing/static_routing.h"
#include "stats/trace_sinks.h"

namespace muzha {
namespace {

class CollectAgent : public Agent {
 public:
  void receive(PacketPtr pkt) override { got.push_back(std::move(pkt)); }
  std::vector<PacketPtr> got;
};

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : channel(sim, PhyParams{}) {
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(std::make_unique<Node>(
          sim, channel, static_cast<NodeId>(i), Position{200.0 * i, 0}));
      nodes.back()->set_trace_sink(&trace);
    }
    for (int i = 0; i < 3; ++i) {
      auto r = std::make_unique<StaticRouting>(*nodes[i]);
      if (i < 2) r->add_route(2, static_cast<NodeId>(i + 1));
      if (i > 0) r->add_route(0, static_cast<NodeId>(i - 1));
      nodes[i]->set_routing(std::move(r));
    }
    nodes[2]->register_agent(80, sink_agent);
  }

  PacketPtr tcp_data(std::int64_t seq) {
    PacketPtr p = nodes[0]->new_packet(2, IpProto::kTcp, 1500);
    TcpHeader h;
    h.seqno = seq;
    h.dst_port = 80;
    p->l4 = h;
    return p;
  }

  Simulator sim{1};
  Channel channel;
  std::vector<std::unique_ptr<Node>> nodes;
  VectorTraceSink trace;
  CollectAgent sink_agent;
};

TEST_F(TraceTest, RecordsFullPacketLifecycle) {
  PacketPtr p = tcp_data(7);
  std::uint64_t uid = p->uid;
  nodes[0]->send(std::move(p));
  sim.run_until(SimTime::from_ms(200));

  EXPECT_EQ(trace.count(TraceEventKind::kLocalSend, uid), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kForward, uid), 1u);  // at node 1
  EXPECT_EQ(trace.count(TraceEventKind::kDeliver, uid), 1u);  // at node 2

  // Events carry the right coordinates.
  for (const TraceEvent& ev : trace.events()) {
    if (ev.uid != uid) continue;
    EXPECT_EQ(ev.src, 0u);
    EXPECT_EQ(ev.dst, 2u);
    EXPECT_EQ(ev.proto, IpProto::kTcp);
    EXPECT_EQ(ev.seqno, 7);
    EXPECT_FALSE(ev.is_ack);
  }
}

TEST_F(TraceTest, EventsAreTimeOrdered) {
  nodes[0]->send(tcp_data(0));
  nodes[0]->send(tcp_data(1));
  sim.run_until(SimTime::from_ms(500));
  const auto& evs = trace.events();
  ASSERT_GE(evs.size(), 4u);
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_GE(evs[i].time, evs[i - 1].time);
  }
}

TEST_F(TraceTest, TtlDropTraced) {
  PacketPtr p = tcp_data(0);
  p->ip.ttl = 1;
  std::uint64_t uid = p->uid;
  nodes[0]->send(std::move(p));
  sim.run_until(SimTime::from_ms(200));
  EXPECT_EQ(trace.count(TraceEventKind::kDropTtl, uid), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kDeliver, uid), 0u);
}

TEST_F(TraceTest, UnknownPortDropTraced) {
  PacketPtr p = tcp_data(0);
  p->tcp().dst_port = 9999;
  std::uint64_t uid = p->uid;
  nodes[0]->send(std::move(p));
  sim.run_until(SimTime::from_ms(200));
  EXPECT_EQ(trace.count(TraceEventKind::kDropNoAgent, uid), 1u);
}

TEST_F(TraceTest, IfqOverflowTraced) {
  // Shrink node 0's pipe by flooding far more than the IFQ holds while the
  // MAC is still busy with the first frame.
  for (int i = 0; i < 60; ++i) {
    nodes[0]->send(tcp_data(i));
  }
  EXPECT_GT(trace.count(TraceEventKind::kDropIfq), 0u);
}

TEST_F(TraceTest, NoSinkMeansNoOverhead) {
  nodes[0]->set_trace_sink(nullptr);
  nodes[1]->set_trace_sink(nullptr);
  nodes[2]->set_trace_sink(nullptr);
  nodes[0]->send(tcp_data(0));
  sim.run_until(SimTime::from_ms(200));
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(sink_agent.got.size(), 1u);  // traffic unaffected
}

}  // namespace
}  // namespace muzha
