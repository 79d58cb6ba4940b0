// Packet tracing tests: every milestone of a packet's life is observable,
// and every discarded packet is counted and traced once, under its cause.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "net/node.h"
#include "net/trace.h"
#include "phy/channel.h"
#include "routing/aodv.h"
#include "routing/static_routing.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "scenario/stack.h"
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
  // One frame went straight to the MAC and 50 fill the IFQ.
  EXPECT_EQ(trace.count(TraceEventKind::kDropIfq), 9u);
  EXPECT_EQ(nodes[0]->count(TraceEventKind::kDropIfq), 9u);
}

TEST_F(TraceTest, RawIpArrivalIsADelivery) {
  // What a CbrApp sends: raw IP with no transport header.
  PacketPtr p = nodes[0]->new_packet(2, IpProto::kNone, 512);
  std::uint64_t uid = p->uid;
  nodes[0]->send(std::move(p));
  sim.run_until(SimTime::from_ms(200));
  EXPECT_EQ(trace.count(TraceEventKind::kDeliver, uid), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kDropNoAgent, uid), 0u);
  EXPECT_EQ(nodes[2]->count(TraceEventKind::kDeliver), 1u);
  EXPECT_EQ(nodes[2]->count(TraceEventKind::kDropNoAgent), 0u);
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

// ---------------------------------------------------------------------------
// Drop causes over AODV: a chain of nodes 250 m apart, as in test_aodv.cc.

// Drop events of packet `uid`; every kind from kDropTtl on is a drop cause.
std::size_t drops_of(const VectorTraceSink& trace, std::uint64_t uid) {
  std::size_t n = 0;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.uid == uid && ev.kind >= TraceEventKind::kDropTtl) ++n;
  }
  return n;
}

class DropCauseTest : public ::testing::Test {
 protected:
  void build(int n) {
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Node>(
          sim, channel, static_cast<NodeId>(i), Position{250.0 * i, 0}));
      nodes.back()->set_trace_sink(&trace);
      nodes.back()->set_routing(std::make_unique<Aodv>(sim, *nodes.back()));
    }
    nodes.back()->register_agent(80, sink_agent);
  }

  PacketPtr tcp_data(NodeId to) {
    PacketPtr p = nodes[0]->new_packet(to, IpProto::kTcp, 500);
    TcpHeader h;
    h.dst_port = 80;
    p->l4 = h;
    return p;
  }

  void move(int i, Position to) { nodes[i]->device().phy().set_position(to); }

  std::uint64_t total(TraceEventKind kind) const {
    std::uint64_t n = 0;
    for (const auto& node : nodes) n += node->count(kind);
    return n;
  }

  Simulator sim{1};
  Channel channel{sim, PhyParams{}};
  std::vector<std::unique_ptr<Node>> nodes;
  VectorTraceSink trace;
  CollectAgent sink_agent;
};

TEST_F(DropCauseTest, SalvagedPacketIsNotADrop) {
  build(3);
  nodes[0]->send(tcp_data(2));
  sim.run_until(SimTime::from_seconds(2));
  ASSERT_EQ(sink_agent.got.size(), 1u);

  // The relay walks off: the cached route's next hop stops answering, the
  // MAC gives up, and the originator buffers the packet for a rediscovery,
  // which succeeds once the relay is back.
  move(1, Position{250.0, 1000.0});
  PacketPtr p = tcp_data(2);
  const std::uint64_t uid = p->uid;
  nodes[0]->send(std::move(p));
  sim.run_until(SimTime::from_seconds(2.3));
  ASSERT_EQ(nodes[0]->device().mac().drops_retry_limit(), 1u);
  move(1, Position{250.0, 0.0});
  sim.run_until(SimTime::from_seconds(5));

  ASSERT_EQ(sink_agent.got.size(), 2u);
  EXPECT_EQ(sink_agent.got[1]->uid, uid);
  EXPECT_EQ(trace.count(TraceEventKind::kDropMac, uid), 0u);
  EXPECT_EQ(drops_of(trace, uid), 0u);
  EXPECT_EQ(nodes[0]->count(TraceEventKind::kDropMac), 0u);
  EXPECT_EQ(trace.count(TraceEventKind::kDeliver, uid), 1u);
}

TEST_F(DropCauseTest, RelayRetryFailureIsOneMacDrop) {
  build(4);
  nodes[0]->send(tcp_data(3));
  sim.run_until(SimTime::from_seconds(2));
  ASSERT_EQ(sink_agent.got.size(), 1u);

  // The destination walks off: the last relay runs out of MAC retries on a
  // packet it forwards, which is lost to the link and to no other cause.
  move(3, Position{750.0, 1000.0});
  PacketPtr p = tcp_data(3);
  const std::uint64_t uid = p->uid;
  nodes[0]->send(std::move(p));
  sim.run_until(SimTime::from_seconds(4));

  EXPECT_EQ(nodes[2]->device().mac().drops_retry_limit(), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kDropMac, uid), 1u);
  EXPECT_EQ(drops_of(trace, uid), 1u);
  EXPECT_EQ(nodes[2]->count(TraceEventKind::kDropMac), 1u);
  EXPECT_EQ(total(TraceEventKind::kDropMac), 1u);
  EXPECT_EQ(total(TraceEventKind::kDropNoRoute), 0u);
  EXPECT_EQ(sink_agent.got.size(), 1u);
}

// ---------------------------------------------------------------------------
// Node tables against the trace on whole runs: every event a node traces it
// also counts, under the same kind, and the IFQ row is the result's
// ifq_drops.

class KindCounter final : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override {
    ++counts[static_cast<std::size_t>(ev.kind)];
    if (ev.kind == TraceEventKind::kDeliver && ev.proto == IpProto::kNone) {
      ++raw_delivered;
    }
  }
  std::array<std::uint64_t, kTraceEventKinds> counts{};
  std::uint64_t raw_delivered = 0;  // CBR packets at their sink
};

struct Ledger {
  std::array<std::uint64_t, kTraceEventKinds> counted{};  // summed tables
  std::uint64_t raw_delivered = 0;
  ExperimentResult result;

  std::uint64_t operator[](TraceEventKind kind) const {
    return counted[static_cast<std::size_t>(kind)];
  }
};

// run_experiment's one-core body, with a KindCounter on every node.
Ledger run_ledger(const ExperimentConfig& cfg) {
  Network net(cfg.seed);
  std::vector<Position> positions = node_positions(cfg, net.sim().rng());
  std::vector<std::size_t> all(positions.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Stack stack = build_stack(cfg, net, positions, all);
  KindCounter traced;
  for (std::size_t i = 0; i < net.size(); ++i) {
    net.node(i).set_trace_sink(&traced);
  }
  net.run_until(cfg.duration);
  Stack* const stacks[] = {&stack};
  Ledger ledger;
  ledger.result = collect(cfg, stacks);
  for (std::size_t i = 0; i < net.size(); ++i) {
    for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
      ledger.counted[k] += net.node(i).count(static_cast<TraceEventKind>(k));
    }
  }
  EXPECT_EQ(ledger.counted, traced.counts);
  ledger.raw_delivered = traced.raw_delivered;
  EXPECT_EQ(ledger[TraceEventKind::kDropIfq], ledger.result.ifq_drops);
  return ledger;
}

ExperimentConfig chain(TcpVariant v, int hops, double loss) {
  ExperimentConfig cfg;
  cfg.hops = hops;
  cfg.uniform_error_rate = loss;
  cfg.flows.push_back(
      {v, 0, static_cast<std::size_t>(hops), SimTime::zero(), 32});
  return cfg;
}

// One AODV counter used to hold 74 drops here: relays that lost their
// route, and MAC retry failures at relays, together.
TEST(DropLedger, NewRenoEightHopsSplitsRouteFromLinkLoss) {
  const Ledger l = run_ledger(chain(TcpVariant::kNewReno, 8, 0.0));
  EXPECT_EQ(l[TraceEventKind::kDropNoRoute], 51u);
  EXPECT_EQ(l[TraceEventKind::kDropMac], 23u);
  EXPECT_EQ(l[TraceEventKind::kDropIfq], 4u);
  EXPECT_EQ(l[TraceEventKind::kDropDiscovery], 0u);
  EXPECT_EQ(l[TraceEventKind::kDropSendBuffer], 0u);
}

// 73 in the one counter before: relays without a route, failed
// discoveries at the source, and MAC retry failures at relays.
TEST(DropLedger, NewRenoEightHopsFivePercentLoss) {
  const Ledger l = run_ledger(chain(TcpVariant::kNewReno, 8, 0.05));
  EXPECT_EQ(l[TraceEventKind::kDropNoRoute], 33u);
  EXPECT_EQ(l[TraceEventKind::kDropDiscovery], 28u);
  EXPECT_EQ(l[TraceEventKind::kDropMac], 12u);
  EXPECT_EQ(l[TraceEventKind::kDropSendBuffer], 0u);
}

// Under relay motion every retry-limit failure hit a forwarded packet.
TEST(DropLedger, MuzhaEightHopsMovingRelays) {
  ExperimentConfig cfg = chain(TcpVariant::kMuzha, 8, 0.0);
  cfg.duration = SimTime::from_seconds(40.0);
  cfg.chain_spacing = Meters(200.0);
  cfg.relay_max_speed = MetersPerSecond(5.0);
  const Ledger l = run_ledger(cfg);
  EXPECT_EQ(l[TraceEventKind::kDropMac], 16u);
  EXPECT_EQ(l.result.mac_retry_drops, 16u);
  EXPECT_EQ(l[TraceEventKind::kDropNoRoute], 21u);
  EXPECT_EQ(l[TraceEventKind::kDropDiscovery], 0u);
}

// Each CBR packet that reaches node 3 is a delivery, not a no-agent drop,
// and each link failure here hit a packet its source salvaged, so
// mac_retry_drops counts them and no drop does.
TEST(DropLedger, NewRenoFourHopsWithCbr) {
  ExperimentConfig cfg = chain(TcpVariant::kNewReno, 4, 0.0);
  cfg.cbr_flows.push_back({1, 3, BitsPerSecond(400'000.0), 512,
                           SimTime::zero()});
  const Ledger l = run_ledger(cfg);
  EXPECT_EQ(l.raw_delivered, 2886u);
  EXPECT_EQ(l[TraceEventKind::kDropNoAgent], 0u);
  EXPECT_EQ(l[TraceEventKind::kDropIfq], 34u);
  EXPECT_EQ(l.result.mac_retry_drops, 16u);
  EXPECT_EQ(l[TraceEventKind::kDropMac], 0u);
}

}  // namespace
}  // namespace muzha
