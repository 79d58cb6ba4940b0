// Figures 5.19-5.22 (Simulation 3B): throughput dynamics of three staggered
// flows of the same variant over a 4-hop chain, entering at 0 / 10 / 20 s.
//
// Paper shape to reproduce: the three Muzha flows converge quickly and
// smoothly to a fair share; NewReno/SACK/Vegas converge slowly and
// oscillate. The four runs are parallelised by run_batch (--jobs N).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "stats/fairness.h"

int main(int argc, char** argv) {
  using namespace muzha;
  using namespace muzha::bench;

  BenchArgs args = parse_bench_args(argc, argv);
  const Seconds duration = args.quick ? Seconds(30.0) : Seconds(60.0);
  const Seconds starts[] = {Seconds(0.0), Seconds(10.0), Seconds(20.0)};

  std::vector<ExperimentConfig> configs;
  for (TcpVariant v : kPaperVariants) {
    ExperimentConfig cfg;
    cfg.topology = TopologyKind::kChain;
    cfg.hops = 4;
    cfg.duration = to_sim_time(duration);
    cfg.seed = 7;
    for (Seconds st : starts) {
      cfg.flows.push_back({v, 0, 4, to_sim_time(st), 32});
    }
    configs.push_back(cfg);
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::size_t run = 0;
  for (TcpVariant v : kPaperVariants) {
    int fig = v == TcpVariant::kMuzha ? 19
              : v == TcpVariant::kNewReno ? 20
              : v == TcpVariant::kSack ? 21
                                        : 22;
    std::printf("\n=== Fig 5.%d: throughput dynamics, three %s flows ===\n",
                fig, variant_name(v));
    const ExperimentResult& res = results[run++];

    // Print per-second throughput rows: t, flow1, flow2, flow3 (kbps).
    std::size_t bins = 0;
    for (const FlowResult& f : res.flows) {
      bins = std::max(bins, f.throughput_series.size());
    }
    std::printf("%6s %10s %10s %10s   (kbps)\n", "t(s)", "flow1", "flow2",
                "flow3");
    for (std::size_t b = 0; b < bins; ++b) {
      double t = -1;
      double vals[3] = {0, 0, 0};
      for (std::size_t fi = 0; fi < res.flows.size(); ++fi) {
        const TimeSeries& ts = res.flows[fi].throughput_series;
        if (b < ts.size()) {
          t = ts[b].t.value();
          vals[fi] = ts[b].value / 1e3;
        }
      }
      std::printf("%6.1f %10.1f %10.1f %10.1f\n", t, vals[0], vals[1],
                  vals[2]);
    }

    // Steady-state fairness over the final third of the run (all flows on).
    double share[3] = {0, 0, 0};
    for (std::size_t fi = 0; fi < res.flows.size(); ++fi) {
      const TimeSeries& ts = res.flows[fi].throughput_series;
      int cnt = 0;
      for (const TimePoint& pt : ts) {
        if (pt.t.value() >= duration.value() * 2.0 / 3.0) {
          share[fi] += pt.value;
          ++cnt;
        }
      }
      if (cnt > 0) share[fi] /= cnt;
    }
    std::printf("steady-state shares (kbps): %.1f / %.1f / %.1f, Jain=%.3f\n",
                share[0] / 1e3, share[1] / 1e3, share[2] / 1e3,
                jain_fairness_index(share));
  }
  return 0;
}
