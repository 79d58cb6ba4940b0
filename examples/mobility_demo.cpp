// Mobility demo (the paper's stated future work): the three relays of a
// 4-hop chain, 200 m apart, wander by random waypoint at up to 15 m/s, each
// in a band around its chain slot. When two neighbours drift apart the link
// breaks: the MAC drops frames at its retry limit, throughput falls to zero,
// TCP times out, and the flow recovers once AODV has a route again — the
// route-failure lifecycle of the paper's Sec. 2.3.
//
// Usage: mobility_demo [muzha|newreno] (Muzha when no argument is given;
// anything else prints the usage and exits 2).
#include <cstdio>
#include <cstring>

#include "scenario/experiment.h"
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

  // Four hops at least: on a 2-hop chain the relay's band never takes it
  // beyond decode range of either end.
  ExperimentConfig cfg;
  cfg.hops = 4;
  cfg.chain_spacing = Meters(200.0);  // 50 m slack below the 250 m range
  cfg.relay_max_speed = MetersPerSecond(15.0);
  cfg.duration = SimTime::from_seconds(40);
  cfg.seed = 2;
  cfg.flows.push_back({variant, 0, 4, SimTime::zero(), /*window=*/16});
  const ExperimentResult result = run_experiment(cfg);
  const FlowResult& flow = result.flows[0];

  std::printf("%s over a 4-hop chain, relays at up to 15 m/s\n\n",
              variant_name(variant));
  std::printf("%6s %12s\n", "t(s)", "kbps");
  for (const TimePoint& p : flow.throughput_series) {
    int bars = static_cast<int>(p.value / 1e4);
    std::printf("%6.1f %12.1f  %.*s\n", p.t.value(), p.value / 1e3, bars,
                "########################################################");
  }
  std::printf("\nTCP: %llu timeouts, %llu retransmissions, %lld segments "
              "delivered\n",
              static_cast<unsigned long long>(flow.timeouts),
              static_cast<unsigned long long>(flow.retransmissions),
              static_cast<long long>(flow.delivered));
  std::printf("link failures: %llu (frames the MAC dropped at its retry "
              "limit)\n",
              static_cast<unsigned long long>(result.mac_retry_drops));
  return 0;
}
