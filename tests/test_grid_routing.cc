// Route diversity on a grid of nodes: unlike the chain, a broken link has
// alternatives, so AODV should route around a failed relay.
#include <gtest/gtest.h>

#include "routing/aodv.h"
#include "scenario/mobility.h"
#include "scenario/network.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_variants.h"

namespace muzha {
namespace {

class GridTest : public ::testing::Test {
 protected:
  // 3x3 grid, 200 m spacing (neighbours in range, diagonals not):
  //   6 7 8
  //   3 4 5
  //   0 1 2
  GridTest() {
    net = std::make_unique<Network>(2);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) net->add_node({200.0 * c, 200.0 * r});
    }
    net->use_aodv();
  }

  std::unique_ptr<Network> net;
};

TEST_F(GridTest, CornerToCornerDelivers) {
  TcpConfig tc;
  tc.dst = net->node(8).id();
  tc.src_port = 1000;
  tc.dst_port = 2000;
  tc.window = 8;
  TcpNewReno agent(net->sim(), net->node(0), tc);
  TcpSink sink(net->sim(), net->node(8), 2000);
  sink.start();
  net->sim().schedule_at(SimTime::zero(), [&] { agent.start(); });
  net->run_until(SimTime::from_seconds(10));
  EXPECT_GT(sink.delivered(), 100);
  // Shortest corner-to-corner path is 4 hops.
  auto& aodv = dynamic_cast<Aodv&>(net->node(0).routing());
  const Aodv::Route* r = aodv.find_route(net->node(8).id());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->hops, 4);
}

TEST_F(GridTest, RoutesAroundDepartedRelay) {
  TcpConfig tc;
  tc.dst = net->node(8).id();
  tc.src_port = 1000;
  tc.dst_port = 2000;
  tc.window = 8;
  TcpNewReno agent(net->sim(), net->node(0), tc);
  TcpSink sink(net->sim(), net->node(8), 2000);
  sink.start();
  net->sim().schedule_at(SimTime::zero(), [&] { agent.start(); });
  net->run_until(SimTime::from_seconds(5));
  std::int64_t before = sink.delivered();
  ASSERT_GT(before, 50);

  // The centre node (4) leaves for good at t = 5 s. Edge paths
  // (0-1-2-5-8 / 0-3-6-7-8) remain available.
  net->node(4).device().phy().set_position({5000, 5000});

  net->run_until(SimTime::from_seconds(25));
  std::int64_t after = sink.delivered();
  // The flow found a way around (the detour is still 4 hops).
  EXPECT_GT(after, before + 100);
  auto& aodv = dynamic_cast<Aodv&>(net->node(0).routing());
  const Aodv::Route* r = aodv.find_route(net->node(8).id());
  ASSERT_NE(r, nullptr);
  // Whatever the new route, it cannot go through the departed centre.
  EXPECT_NE(r->next_hop, net->node(4).id());
}

TEST_F(GridTest, CrossTrafficOnDisjointPathsCoexists) {
  // Flow A: 0 -> 2 (bottom row); flow B: 6 -> 8 (top row). The rows are
  // 400 m apart: out of decode range, inside carrier-sense range.
  TcpConfig ta;
  ta.dst = net->node(2).id();
  ta.src_port = 1000;
  ta.dst_port = 2000;
  ta.window = 8;
  TcpNewReno a(net->sim(), net->node(0), ta);
  TcpSink sink_a(net->sim(), net->node(2), 2000);
  sink_a.start();

  TcpConfig tb;
  tb.dst = net->node(8).id();
  tb.src_port = 1001;
  tb.dst_port = 2001;
  tb.window = 8;
  TcpNewReno b(net->sim(), net->node(6), tb);
  TcpSink sink_b(net->sim(), net->node(8), 2001);
  sink_b.start();

  net->sim().schedule_at(SimTime::zero(), [&] { a.start(); });
  net->sim().schedule_at(SimTime::zero(), [&] { b.start(); });
  net->run_until(SimTime::from_seconds(15));
  EXPECT_GT(sink_a.delivered(), 100);
  EXPECT_GT(sink_b.delivered(), 100);
}

}  // namespace
}  // namespace muzha
