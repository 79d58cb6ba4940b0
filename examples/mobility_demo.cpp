// Mobility demo (the paper's stated future work): a relay in a 2-hop chain
// walks away mid-transfer and comes back. Watch the MAC detect the broken
// link, AODV tear the route down and rediscover it, and TCP ride through the
// outage — the full route-failure lifecycle of the paper's Sec. 2.3.
//
// Usage: mobility_demo [muzha|newreno] (Muzha when no argument is given;
// anything else prints the usage and exits 2).
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "routing/aodv.h"
#include "scenario/experiment.h"
#include "scenario/mobility.h"
#include "scenario/network.h"
#include "scenario/stack.h"
#include "stats/time_series.h"

int main(int argc, char** argv) {
  using namespace muzha;

  TcpVariant variant = TcpVariant::kMuzha;
  if (argc == 2 && std::strcmp(argv[1], "newreno") == 0) {
    variant = TcpVariant::kNewReno;
  } else if (argc > 2 || (argc == 2 && std::strcmp(argv[1], "muzha") != 0)) {
    std::fprintf(stderr, "usage: %s [muzha|newreno]\n", argv[0]);
    return 2;
  }

  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.duration = SimTime::from_seconds(40);
  cfg.seed = 4;
  cfg.flows.push_back({variant, 0, 2, SimTime::zero(), /*window=*/16});
  // 200 m: slack below the 250 m range.
  const std::vector<Position> positions =
      chain_positions(cfg.hops, Meters(200.0));
  std::vector<std::size_t> all(positions.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Network net(cfg.seed);
  Stack stack = build_stack(cfg, net, positions, all);

  // The relay wanders off perpendicular to the chain at t=10 s (links break
  // once its offset exceeds ~150 m) and returns by t=20 s.
  LinearMobility::Config mc;
  mc.vy = MetersPerSecond(50.0);
  LinearMobility mob(net.sim(), net.node(1), mc);
  net.sim().schedule_at(SimTime::from_seconds(10), [&] { mob.start(); });
  net.sim().schedule_at(SimTime::from_seconds(15),
                        [&] { mob.set_velocity(MetersPerSecond(0.0), MetersPerSecond(-50.0)); });
  net.sim().schedule_at(SimTime::from_seconds(20),
                        [&] { mob.set_velocity(MetersPerSecond(0.0), MetersPerSecond(0.0)); });

  net.run_until(cfg.duration);
  Stack* const stacks[] = {&stack};
  const ExperimentResult result = collect(cfg, stacks);
  const FlowResult& flow = result.flows[0];

  std::printf("%s over a 2-hop chain; relay absent ~t=13..17 s\n\n",
              variant_name(variant));
  std::printf("%6s %12s\n", "t(s)", "kbps");
  for (const TimePoint& p : flow.throughput_series) {
    int bars = static_cast<int>(p.value / 1e4);
    std::printf("%6.1f %12.1f  %.*s\n", p.t.value(), p.value / 1e3, bars,
                "########################################################");
  }
  auto& aodv0 = dynamic_cast<Aodv&>(net.node(0).routing());
  std::printf("\nAODV at the source: %llu route discoveries, %llu RERRs "
              "heard network-wide\n",
              static_cast<unsigned long long>(aodv0.rreqs_originated()),
              static_cast<unsigned long long>(
                  dynamic_cast<Aodv&>(net.node(1).routing()).rerrs_sent() +
                  aodv0.rerrs_sent()));
  std::printf("TCP: %llu timeouts, %llu retransmissions, %lld segments "
              "delivered\n",
              static_cast<unsigned long long>(flow.timeouts),
              static_cast<unsigned long long>(flow.retransmissions),
              static_cast<long long>(flow.delivered));
  return 0;
}
