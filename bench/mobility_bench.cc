// Mobility stress (the paper's stated future work): an 8-hop chain whose
// interior relays wander with random-waypoint motion inside a corridor,
// producing genuine route failures. Compares how each variant's throughput
// degrades from the static baseline. The networks are built by hand, not
// through run_experiment, so the only flag is --quick.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "scenario/mobility.h"
#include "tcp/tcp_sink.h"

namespace {

using namespace muzha;

double run_once(TcpVariant v, bool mobile, double max_speed,
                std::uint64_t seed) {
  const int hops = 8;
  const Seconds duration(40.0);
  const Meters spacing = Meters(200.0);  // 50 m slack below decode range
  Network net(seed);
  build_chain(net, hops, spacing);
  net.use_aodv();
  if (v == TcpVariant::kMuzha || v == TcpVariant::kJersey) {
    net.enable_muzha_routers();
  }

  TcpConfig tc;
  tc.dst = net.node(hops).id();
  tc.src_port = 1000;
  tc.dst_port = 2000;
  tc.window = 16;
  auto agent = make_tcp_agent(v, net.sim(), net.node(0), tc);
  TcpSink::Config sc;
  sc.port = 2000;
  TcpSink sink(net.sim(), net.node(hops), sc);
  sink.start();
  TcpAgent* raw = agent.get();
  net.sim().schedule_at(SimTime::zero(), [raw] { raw->start(); });

  std::vector<std::unique_ptr<RandomWaypointMobility>> movers;
  if (mobile) {
    // Interior relays wander in a band around their chain slots; the band
    // is sized so links break intermittently rather than permanently.
    for (int i = 1; i < hops; ++i) {
      RandomWaypointMobility::Config mc;
      mc.min_x = 200.0 * i - 35;
      mc.max_x = 200.0 * i + 35;
      mc.min_y = -35;
      mc.max_y = 35;
      mc.min_speed = MetersPerSecond(1.0);
      mc.max_speed = MetersPerSecond(max_speed);
      mc.pause = SimTime::from_seconds(1.0);
      movers.push_back(std::make_unique<RandomWaypointMobility>(
          net.sim(), net.node(i), mc));
      movers.back()->start();
    }
  }

  net.run_until(to_sim_time(duration));
  return static_cast<double>(sink.delivered()) * 1460 * 8 / duration.value() / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--quick") {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
    quick = true;
  }
  const int seeds = quick ? 1 : 3;
  const double speeds[] = {0.0, 5.0, 15.0};

  std::printf("=== Mobility stress: 8-hop chain, wandering relays (kbps) "
              "===\n%-14s", "max speed");
  const TcpVariant variants[] = {TcpVariant::kMuzha, TcpVariant::kNewReno,
                                 TcpVariant::kSack, TcpVariant::kVegas};
  for (TcpVariant v : variants) std::printf("%10s", variant_name(v));
  std::printf("\n");

  for (double sp : speeds) {
    std::printf("%-14s", sp == 0 ? "static" :
                (sp < 10 ? "5 m/s" : "15 m/s"));
    for (TcpVariant v : variants) {
      double thr = 0;
      for (int s = 1; s <= seeds; ++s) {
        thr += run_once(v, sp > 0, sp, static_cast<std::uint64_t>(s)) / seeds;
      }
      std::printf("%10.1f", thr);
    }
    std::printf("\n");
  }
  return 0;
}
