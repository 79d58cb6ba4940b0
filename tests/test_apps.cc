#include <gtest/gtest.h>

#include "app/cbr.h"
#include "routing/static_routing.h"
#include "scenario/network.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_variants.h"

namespace muzha {
namespace {

TEST(CbrApp, SendsAtConfiguredRate) {
  Network net(1);
  build_chain(net, 1, Meters(200.0));
  net.use_static_routing();
  net.static_routing(0).add_route(1, 1);

  CbrApp::Config cfg;
  cfg.dst = net.node(1).id();
  cfg.packet_size_bytes = 500;
  cfg.rate = BitsPerSecond(400'000);  // 100 packets/s
  cfg.start_time = SimTime::from_seconds(1.0);
  CbrApp cbr(net.sim(), net.node(0), cfg);
  cbr.install();

  net.run_until(SimTime::from_seconds(3.0));
  // Two seconds at 100 pkt/s.
  EXPECT_NEAR(static_cast<double>(cbr.packets_sent()), 200.0, 5.0);
  // Destination saw them (counted as local deliveries even with no agent).
  EXPECT_GT(net.node(1).delivered_local(), 150u);
}

TEST(CbrBackgroundTraffic, DegradesTcpThroughput) {
  // TCP alone vs TCP + CBR cross-load on a 2-hop chain.
  auto run = [](bool with_cbr) {
    Network net(3);
    build_chain(net, 2, Meters(200.0));
    net.use_static_routing();
    net.static_routing(0).add_route(2, 1);
    net.static_routing(1).add_route(2, 2);
    net.static_routing(1).add_route(0, 0);
    net.static_routing(2).add_route(0, 1);

    TcpConfig tc;
    tc.dst = net.node(2).id();
    tc.src_port = 1000;
    tc.dst_port = 2000;
    tc.window = 8;
    TcpNewReno agent(net.sim(), net.node(0), tc);
    TcpSink sink(net.sim(), net.node(2), 2000);
    sink.start();
    net.sim().schedule_at(SimTime::zero(), [&] { agent.start(); });

    CbrApp::Config cc;
    cc.dst = net.node(0).id();
    cc.packet_size_bytes = 1000;
    cc.rate = BitsPerSecond(600'000);
    cc.start_time = SimTime::zero();
    CbrApp cbr(net.sim(), net.node(2), cc);
    if (with_cbr) cbr.install();

    net.run_until(SimTime::from_seconds(10));
    return sink.delivered();
  };
  std::int64_t clean = run(false);
  std::int64_t loaded = run(true);
  EXPECT_GT(clean, 100);
  EXPECT_LT(loaded, clean);
}

}  // namespace
}  // namespace muzha
