// Compare every TCP variant over a multihop 802.11 chain — the scenario the
// paper's introduction motivates: how much of the scarce multihop wireless
// bandwidth does each congestion controller actually capture, and at what
// retransmission cost?
//
// Usage: chain_comparison (no arguments: an 8-hop chain, window_=32, 30 s).
// muzha_cli runs other chains, windows and durations and validates them.
#include <cstdio>

#include "scenario/experiment.h"

int main(int argc, char** argv) {
  using namespace muzha;

  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: %s\n"
                 "takes no arguments; for another chain use muzha_cli "
                 "--variant v1,v2,... --hops N --window N --duration SECONDS\n",
                 argv[0]);
    return 2;
  }
  const int hops = 8;
  const int window = 32;
  const double seconds = 30.0;

  std::printf("Single FTP flow over a %d-hop chain, window_=%d, %.0f s\n\n",
              hops, window, seconds);
  std::printf("%-12s %12s %8s %8s %8s %10s %10s\n", "variant", "kbps", "sent",
              "retx", "timeouts", "IFQ drops", "MAC drops");

  for (TcpVariant v :
       {TcpVariant::kTahoe, TcpVariant::kReno, TcpVariant::kNewReno,
        TcpVariant::kNewRenoEcn, TcpVariant::kSack, TcpVariant::kVegas,
        TcpVariant::kWestwood, TcpVariant::kDoor, TcpVariant::kAdtcp,
        TcpVariant::kJersey, TcpVariant::kRoVegas, TcpVariant::kMuzha}) {
    ExperimentConfig cfg;
    cfg.hops = hops;
    cfg.duration = SimTime::from_seconds(seconds);
    cfg.seed = 1;
    cfg.flows.push_back(
        {v, 0, static_cast<std::size_t>(hops), SimTime::zero(), window});
    auto res = run_experiment(cfg);
    const FlowResult& f = res.flows[0];
    std::printf("%-12s %12.1f %8llu %8llu %8llu %10llu %10llu\n",
                variant_name(v), f.throughput.value() / 1e3,
                static_cast<unsigned long long>(f.packets_sent),
                static_cast<unsigned long long>(f.retransmissions),
                static_cast<unsigned long long>(f.timeouts),
                static_cast<unsigned long long>(res.ifq_drops),
                static_cast<unsigned long long>(res.mac_retry_drops));
  }
  return 0;
}
