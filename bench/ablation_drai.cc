// Ablation: sensitivity of TCP Muzha to the (empirical) DRAI thresholds.
//
// The paper leaves the router DRAI formula open (Sec. 4.6: "further
// empirical research is needed"). This bench sweeps the two dominant knobs —
// the utilization level below which routers still recommend acceleration,
// and the queue-occupancy band mapped to deceleration — over an 8-hop chain.
// Runs are parallelised by run_batch (--jobs N).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace muzha;
  using namespace muzha::bench;

  BenchArgs args = parse_bench_args(argc, argv);
  const int seeds = args.quick ? 1 : 3;
  const int hops = 8;
  const Seconds duration(30.0);

  std::printf("=== Ablation: DRAI thresholds, Muzha on an %d-hop chain ===\n",
              hops);
  std::printf("%-24s %-24s %12s %8s %8s\n", "u thresholds (5/4/3)",
              "q thresholds (5/4/3/2)", "thr (kbps)", "retx", "timeouts");

  struct Knobs {
    double u5, u4, u3;
    double q5, q4, q3, q2;
    bool gradient = false;  // future-work queue-growth extension
  };
  const Knobs sweeps[] = {
      {0.50, 0.80, 0.96, 0.05, 0.25, 0.55, 0.85, false},  // default
      {0.30, 0.60, 0.90, 0.05, 0.25, 0.55, 0.85, false},  // timid utilization
      {0.70, 0.90, 0.99, 0.05, 0.25, 0.55, 0.85, false},  // greedy utilization
      {0.50, 0.80, 0.96, 0.02, 0.10, 0.30, 0.60, false},  // twitchy queue
      {0.50, 0.80, 0.96, 0.20, 0.50, 0.75, 0.95, false},  // tolerant queue
      {0.50, 0.80, 0.96, 0.05, 0.25, 0.55, 0.85, true},   // + queue gradient
  };

  std::vector<ExperimentConfig> configs;
  for (const Knobs& k : sweeps) {
    for (int s = 0; s < seeds; ++s) {
      ExperimentConfig cfg =
          chain_single_flow(TcpVariant::kMuzha, hops, 32, duration, 1 + s);
      cfg.drai.u_aggressive_accel = k.u5;
      cfg.drai.u_moderate_accel = k.u4;
      cfg.drai.u_stabilize = k.u3;
      cfg.drai.q_aggressive_accel = k.q5;
      cfg.drai.q_moderate_accel = k.q4;
      cfg.drai.q_stabilize = k.q3;
      cfg.drai.q_moderate_decel = k.q2;
      cfg.drai.use_queue_gradient = k.gradient;
      configs.push_back(cfg);
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::size_t run = 0;
  for (const Knobs& k : sweeps) {
    double thr = 0, retx = 0, to = 0;
    for (int s = 0; s < seeds; ++s) {
      const ExperimentResult& res = results[run++];
      thr += res.flows[0].throughput.value() / 1e3;
      retx += static_cast<double>(res.flows[0].retransmissions);
      to += static_cast<double>(res.flows[0].timeouts);
    }
    char ubuf[32], qbuf[48];
    std::snprintf(ubuf, sizeof(ubuf), "%.2f/%.2f/%.2f", k.u5, k.u4, k.u3);
    std::snprintf(qbuf, sizeof(qbuf), "%.2f/%.2f/%.2f/%.2f%s", k.q5, k.q4,
                  k.q3, k.q2, k.gradient ? " +grad" : "");
    std::printf("%-24s %-24s %12.1f %8.1f %8.1f\n", ubuf, qbuf, thr / seeds,
                retx / seeds, to / seeds);
  }
  return 0;
}
