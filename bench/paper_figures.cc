// The paper's evaluation (Ch. 5, Figs 5.2-5.22) and its ablations, one row
// of kFigures per figure: paper_figures [--figure NAME] [--quick] [--jobs N].
// Without --figure every row prints, in table order. --quick runs fewer
// points and replications; --jobs N is an upper bound on worker threads
// (0 = all hardware cores), and a row's stdout is the same at any N. An
// unknown flag or figure name, --figure without a name, and a negative,
// malformed or out-of-range N exit 2. bench/expected/<NAME>.{quick,full}.txt
// holds each row's committed stdout.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "bench/bench_util.h"
#include "scenario/batch_runner.h"
#include "scenario/experiment.h"
#include "stats/fairness.h"
#include "stats/replicated_stats.h"

namespace {

using namespace muzha;
using namespace muzha::bench;

constexpr TcpVariant kPaperVariants[] = {
    TcpVariant::kMuzha, TcpVariant::kNewReno, TcpVariant::kSack,
    TcpVariant::kVegas};

struct BenchArgs {
  bool quick = false;
  int jobs = 0;
};

// Aggregates one per-run metric over a point's replications.
template <typename Fn>
ReplicatedStats replication_stats(const std::vector<ExperimentResult>& reps,
                                  Fn metric) {
  ReplicatedStats s;
  for (const ExperimentResult& r : reps) s.add(metric(r));
  return s;
}

// "mean±sd" table cell (sd omitted for single-replication runs).
std::string stat_cell(const ReplicatedStats& s, double scale = 1.0) {
  char buf[48];
  if (s.count() > 1) {
    std::snprintf(buf, sizeof(buf), "%.1f±%.1f", s.mean() / scale,
                  s.stddev() / scale);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", s.mean() / scale);
  }
  return buf;
}

// Figures 5.2-5.7: congestion-window evolution of each variant over 4-, 8-
// and 16-hop chains (Simulation 1). Two views per figure pair: the full
// 0-10 s run (sampled every 100 ms) and the 0-2 s start-up detail (sampled
// every 25 ms).
//
// Paper shape to reproduce: Muzha rises promptly and stabilizes (with some
// vibration) and holds its window through random loss; Vegas sits flat and
// low; NewReno/SACK saw-tooth hard and collapse repeatedly. Runs are
// parallelised by run_batch (--jobs N).
void print_trace(const char* label, const muzha::TimeSeries& trace,
                 muzha::Seconds t_end, muzha::Seconds step) {
  std::printf("%s t_s:", label);
  // Step-interpolate the change-event series onto a regular grid.
  std::size_t idx = 0;
  double v = 0.0;
  for (double t = 0.0; t <= t_end.value() + 1e-9; t += step.value()) {
    while (idx < trace.size() && trace[idx].t.value() <= t) {
      v = trace[idx].value;
      ++idx;
    }
    std::printf(" %.1f", v);
  }
  std::printf("\n");
}

void fig5_02_cwnd_chain(const BenchArgs& args) {
  std::vector<int> hop_counts = args.quick ? std::vector<int>{4}
                                           : std::vector<int>{4, 8, 16};
  const int window = 32;  // let the variants show their window dynamics
  const Seconds duration(10.0);

  std::vector<ExperimentConfig> configs;
  for (int hops : hop_counts) {
    for (TcpVariant v : kPaperVariants) {
      configs.push_back(
          chain_single_flow(v, hops, window, duration, /*seed=*/1));
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::size_t run = 0;
  for (int hops : hop_counts) {
    int fig = hops == 4 ? 2 : (hops == 8 ? 4 : 6);
    std::printf("\n=== Fig 5.%d/5.%d: CWND vs time, %d-hop chain ===\n", fig,
                fig + 1, hops);
    for (TcpVariant v : kPaperVariants) {
      const FlowResult& f = results[run++].flows[0];
      char label[64];
      std::snprintf(label, sizeof(label), "%-8s [0-10s]", variant_name(v));
      print_trace(label, f.cwnd_trace, duration, Seconds(0.1));
      std::snprintf(label, sizeof(label), "%-8s [0-2s] ", variant_name(v));
      print_trace(label, f.cwnd_trace, Seconds(2.0), Seconds(0.025));
      std::printf("%-8s summary: thr=%.1f kbps retx=%llu timeouts=%llu\n",
                  variant_name(v), f.throughput.value() / 1e3,
                  static_cast<unsigned long long>(f.retransmissions),
                  static_cast<unsigned long long>(f.timeouts));
    }
  }
}

// Figures 5.8-5.13: throughput (5.8-5.10), then number of retransmissions
// (5.11-5.13), vs number of hops for window_ in {4, 8, 32}, single FTP flow
// over an h-hop chain (Simulation 2). One sweep feeds both sets of tables:
// mean ± stddev over seed replications, all points executed concurrently by
// the batch runner (--jobs N, default all cores).
//
// Paper shape to reproduce:
//  - Throughput: Vegas wins below ~8 hops then flattens low; Muzha beats
//    NewReno/SACK by ~5-10%; throughput falls steeply with hops.
//  - Retransmissions: Vegas stays near zero at every length; NewReno/SACK
//    retransmit heavily (aggressive slow-start growth); Muzha stays lowest of
//    the window-probing protocols at short chains, with the gap narrowing as
//    the advertised window grows.
void fig5_08_hops_sweep(const BenchArgs& args) {
  const int windows[] = {4, 8, 32};
  std::vector<int> hop_counts = args.quick ? std::vector<int>{4, 8}
                                           : std::vector<int>{4, 8, 16, 24, 32};
  const std::size_t seeds = args.quick ? 1 : 3;
  const Seconds duration(30.0);

  // One point per (window, hops, variant); the runner replicates each across
  // seeds and sweeps everything on the pool at once.
  BatchRunner runner({.jobs = args.jobs, .replications = seeds, .base_seed = 1});
  for (int window : windows) {
    for (int hops : hop_counts) {
      for (TcpVariant v : kPaperVariants) {
        runner.add_point(chain_single_flow(v, hops, window, duration));
      }
    }
  }
  auto results = runner.run();

  // One table per window, numbered first_fig, first_fig + 1, ...; cells are
  // metric / scale.
  auto print_tables = [&](int first_fig, const char* title, const char* unit,
                          double (*metric)(const ExperimentResult&),
                          double scale) {
    std::size_t point = 0;
    for (std::size_t w = 0; w < std::size(windows); ++w) {
      std::printf("\n=== Fig 5.%d: %s vs hops (window_=%d) ===\n",
                  first_fig + static_cast<int>(w), title, windows[w]);
      std::printf("%-8s", "hops");
      for (TcpVariant v : kPaperVariants) std::printf("%16s", variant_name(v));
      std::printf("   (%s, mean±sd over %zu seed%s)\n", unit, seeds,
                  seeds == 1 ? "" : "s");
      for (int hops : hop_counts) {
        std::printf("%-8d", hops);
        for (std::size_t i = 0; i < std::size(kPaperVariants); ++i) {
          ReplicatedStats s = replication_stats(results[point++], metric);
          std::printf("%16s", stat_cell(s, scale).c_str());
        }
        std::printf("\n");
      }
    }
  };
  print_tables(
      8, "Throughput", "kbps",
      [](const ExperimentResult& r) { return r.flows[0].throughput.value(); },
      1e3);
  print_tables(
      11, "Retransmissions", "retransmitted segments, 30 s",
      [](const ExperimentResult& r) {
        return static_cast<double>(r.flows[0].retransmissions);
      },
      1.0);
}

// Figures 5.16-5.18 (Simulation 3A): fairness when two flows cross.
//
// Cross topology of Fig 5.15: one flow travels the horizontal arm, one the
// vertical arm, sharing the centre node; h in {4, 6, 8}; 50 s runs. Seed
// replications run concurrently on the batch pool (--jobs N).
//
// Paper shape to reproduce: NewReno steals nearly all bandwidth from Vegas
// (low Jain index); NewReno + Muzha share fairly (index near 1) with higher
// aggregate throughput. Fig 5.14's Jain index is the metric itself.
struct Pairing {
  muzha::TcpVariant a;
  muzha::TcpVariant b;
};

void fig5_16_coexistence(const BenchArgs& args) {
  std::vector<int> hop_counts = args.quick ? std::vector<int>{4}
                                           : std::vector<int>{4, 6, 8};
  // Medium capture makes per-seed splits extreme in both directions; the
  // paper's qualitative fairness story only emerges in the seed average.
  const std::size_t seeds = args.quick ? 1 : 5;
  const Seconds duration(50.0);
  const Pairing pairings[] = {
      {TcpVariant::kNewReno, TcpVariant::kVegas},   // Fig 5.16
      {TcpVariant::kNewReno, TcpVariant::kMuzha},   // Fig 5.17
      {TcpVariant::kMuzha, TcpVariant::kMuzha},     // intra-protocol baseline
      {TcpVariant::kNewReno, TcpVariant::kNewReno},
  };

  BatchRunner runner({.jobs = args.jobs, .replications = seeds, .base_seed = 1});
  for (const Pairing& p : pairings) {
    for (int hops : hop_counts) {
      ExperimentConfig cfg;
      cfg.topology = TopologyKind::kCross;
      cfg.hops = hops;
      cfg.duration = to_sim_time(duration);
      // Horizontal arm nodes come first (0..hops), vertical arm shares the
      // centre; flow A runs across the horizontal arm, flow B across the
      // vertical one.
      std::size_t h0 = 0, h1 = static_cast<std::size_t>(hops);
      std::size_t v0 = static_cast<std::size_t>(hops) + 1;
      std::size_t v1 = static_cast<std::size_t>(2 * hops);
      // Router assistance is on whenever a Muzha flow participates.
      cfg.flows.push_back({p.a, h0, h1, SimTime::zero(), 32});
      cfg.flows.push_back({p.b, v0, v1, SimTime::zero(), 32});
      runner.add_point(std::move(cfg));
    }
  }
  auto results = runner.run();

  std::printf("=== Fig 5.16-5.18: coexisting flows on an h-hop cross ===\n");
  std::printf("(Jain/run = mean per-seed index, short-term fairness;\n"
              " Jain/avg = index of seed-averaged shares, long-term "
              "fairness)\n");
  std::printf("%-22s %-5s %16s %16s %12s %10s %10s\n", "pairing", "hops",
              "flowA (kbps)", "flowB (kbps)", "total", "Jain/run",
              "Jain/avg");
  std::size_t point = 0;
  for (const Pairing& p : pairings) {
    for (int hops : hop_counts) {
      ReplicatedStats a_stats, b_stats, jain_stats;
      for (const ExperimentResult& res : results[point++]) {
        double a = res.flows[0].throughput.value() / 1e3;
        double b = res.flows[1].throughput.value() / 1e3;
        double thr[] = {a, b};
        a_stats.add(a);
        b_stats.add(b);
        jain_stats.add(jain_fairness_index(thr));
      }
      char name[64];
      std::snprintf(name, sizeof(name), "%s vs %s", variant_name(p.a),
                    variant_name(p.b));
      double means[] = {a_stats.mean(), b_stats.mean()};
      std::printf("%-22s %-5d %16s %16s %12.1f %10.3f %10.3f\n", name, hops,
                  stat_cell(a_stats).c_str(), stat_cell(b_stats).c_str(),
                  a_stats.mean() + b_stats.mean(), jain_stats.mean(),
                  jain_fairness_index(means));
    }
  }
}

// Figures 5.19-5.22 (Simulation 3B): throughput dynamics of three staggered
// flows of the same variant over a 4-hop chain, entering at 0 / 10 / 20 s.
//
// Paper shape to reproduce: the three Muzha flows converge quickly and
// smoothly to a fair share; NewReno/SACK/Vegas converge slowly and
// oscillate. The four runs are parallelised by run_batch (--jobs N).
void fig5_19_dynamics(const BenchArgs& args) {
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
}

// Ablation: sensitivity of TCP Muzha to the (empirical) DRAI thresholds.
//
// The paper leaves the router DRAI formula open (Sec. 4.6: "further
// empirical research is needed"). This bench sweeps the two dominant knobs —
// the utilization level below which routers still recommend acceleration,
// and the queue-occupancy band mapped to deceleration — over an 8-hop chain.
// Runs are parallelised by run_batch (--jobs N).
void ablation_drai(const BenchArgs& args) {
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
}

// Ablation: value of Muzha's marked/unmarked loss discrimination (Sec. 4.7).
//
// Sweeps a uniform random per-frame loss rate over an 8-hop chain and
// compares (a) Muzha with discrimination, (b) Muzha treating every triple
// dup-ACK as congestion, and (c) NewReno. The gap between (a) and (b)
// isolates what the router-assisted marking buys under random loss.
// Runs are parallelised by run_batch (--jobs N).
void ablation_marking(const BenchArgs& args) {
  const double error_rates[] = {0.0, 0.01, 0.03, 0.05};
  const int seeds = args.quick ? 1 : 3;
  const int hops = 8;
  const Seconds duration(30.0);

  std::printf("=== Ablation: random-loss discrimination, %d-hop chain ===\n",
              hops);
  std::printf("%-10s %18s %18s %14s   (kbps; halvings = marked-loss events)\n",
              "loss rate", "Muzha", "Muzha(no-disc)", "NewReno");
  std::vector<ExperimentConfig> configs;
  for (double er : error_rates) {
    for (int s = 0; s < seeds; ++s) {
      for (int mode = 0; mode < 3; ++mode) {
        ExperimentConfig cfg = chain_single_flow(
            mode == 2 ? TcpVariant::kNewReno : TcpVariant::kMuzha, hops, 32,
            duration, 1 + s);
        cfg.uniform_error_rate = er;
        cfg.muzha_loss_discrimination = (mode == 0);
        configs.push_back(cfg);
      }
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::size_t run = 0;
  for (double er : error_rates) {
    double thr[3] = {0, 0, 0};
    double halvings[2] = {0, 0};
    for (int s = 0; s < seeds; ++s) {
      for (int mode = 0; mode < 3; ++mode) {
        const ExperimentResult& res = results[run++];
        thr[mode] += res.flows[0].throughput.value() / 1e3;
        if (mode < 2) {
          halvings[mode] +=
              static_cast<double>(res.flows[0].marked_loss_events);
        }
      }
    }
    std::printf("%-10.2f %11.1f (%4.1f) %11.1f (%4.1f) %14.1f\n", er,
                thr[0] / seeds, halvings[0] / seeds, thr[1] / seeds,
                halvings[1] / seeds, thr[2] / seeds);
  }
}

// Single-bit vs multi-level router feedback (the paper's Sec. 3.2 / 4.6
// argument: "ECN ... can be viewed as an extreme case of multi-level DRAI.
// But this approach is too brief for sender to gain further network
// status").
//
// Compares, over chains of growing length: plain NewReno (no router help),
// NewReno + RED/ECN (single-bit marks), and TCP Muzha (5-level DRAI).
// Runs are parallelised by run_batch (--jobs N).
void ecn_vs_drai(const BenchArgs& args) {
  const int seeds = args.quick ? 1 : 3;
  std::vector<int> hop_counts = args.quick ? std::vector<int>{4}
                                           : std::vector<int>{4, 8, 16};
  const TcpVariant contenders[] = {
      TcpVariant::kNewReno, TcpVariant::kNewRenoEcn, TcpVariant::kMuzha};

  std::vector<ExperimentConfig> configs;
  for (int hops : hop_counts) {
    for (TcpVariant v : contenders) {
      for (int s = 0; s < seeds; ++s) {
        configs.push_back(chain_single_flow(v, hops, 32, Seconds(30.0), 1 + s));
      }
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::printf("=== Feedback granularity: none vs 1-bit ECN vs 5-level DRAI "
              "(kbps / retx) ===\n%-8s", "hops");
  for (TcpVariant v : contenders) std::printf("%22s", variant_name(v));
  std::printf("\n");

  std::size_t run = 0;
  for (int hops : hop_counts) {
    std::printf("%-8d", hops);
    for (std::size_t i = 0; i < std::size(contenders); ++i) {
      double thr = 0, retx = 0;
      for (int s = 0; s < seeds; ++s) {
        const ExperimentResult& res = results[run++];
        thr += res.flows[0].throughput.value() / 1e3 / seeds;
        retx += static_cast<double>(res.flows[0].retransmissions) / seeds;
      }
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.1f / %.0f", thr, retx);
      std::printf("%22s", cell);
    }
    std::printf("\n");
  }
}

// Related-work shootout: Muzha against the Ch. 3 protocols it is positioned
// against — TCP-DOOR and ADTCP (end-to-end) and TCP Jersey and TCP RoVegas
// (router-assisted) — plus NewReno and Westwood baselines, across the
// paper's three stress axes: path length, random loss, and advertised
// window. Mean over seed replications, parallelised by the batch runner.
void relwork_shootout(const BenchArgs& args) {
  const std::size_t seeds = args.quick ? 1 : 3;
  const Seconds duration(30.0);
  const TcpVariant contenders[] = {
      TcpVariant::kMuzha,  TcpVariant::kJersey, TcpVariant::kRoVegas,
      TcpVariant::kWestwood, TcpVariant::kDoor, TcpVariant::kAdtcp,
      TcpVariant::kNewReno,
  };

  struct Scenario {
    const char* label;
    int hops;
    int window;
    double loss;
  };
  std::vector<Scenario> scenarios = {
      {"4-hop w8", 4, 8, 0.0},
      {"8-hop w32", 8, 32, 0.0},
  };
  if (!args.quick) {
    scenarios.push_back({"16-hop w32", 16, 32, 0.0});
    scenarios.push_back({"8-hop 3% loss", 8, 32, 0.03});
    scenarios.push_back({"8-hop 5% loss", 8, 32, 0.05});
  }

  BatchRunner runner({.jobs = args.jobs, .replications = seeds, .base_seed = 1});
  for (const Scenario& sc : scenarios) {
    for (TcpVariant v : contenders) {
      ExperimentConfig cfg =
          chain_single_flow(v, sc.hops, sc.window, duration);
      cfg.uniform_error_rate = sc.loss;
      runner.add_point(std::move(cfg));
    }
  }
  auto results = runner.run();

  std::printf("=== Related-work shootout (kbps, mean over %zu seed%s) ===\n%-16s",
              seeds, seeds == 1 ? "" : "s", "scenario");
  for (TcpVariant v : contenders) std::printf("%10s", variant_name(v));
  std::printf("\n");
  std::size_t point = 0;
  for (const Scenario& sc : scenarios) {
    std::printf("%-16s", sc.label);
    for (std::size_t i = 0; i < std::size(contenders); ++i) {
      ReplicatedStats s = replication_stats(
          results[point++],
          [](const ExperimentResult& r) { return r.flows[0].throughput.value(); });
      std::printf("%10.1f", s.mean() / 1e3);
    }
    std::printf("\n");
  }
}

// Mobility stress (the paper's stated future work): an 8-hop chain, 200 m
// apart, whose interior relays wander with random-waypoint motion inside a
// band around their chain slots (ExperimentConfig::relay_max_speed),
// producing genuine route failures. Compares how each variant's throughput
// degrades from the static baseline. Each cell averages seeds 1..3, set on
// the configs, not derived. Runs are parallelised by run_batch (--jobs N).
void mobility_bench(const BenchArgs& args) {
  const int seeds = args.quick ? 1 : 3;
  const double speeds[] = {0.0, 5.0, 15.0};
  const TcpVariant variants[] = {TcpVariant::kMuzha, TcpVariant::kNewReno,
                                 TcpVariant::kSack, TcpVariant::kVegas};

  std::vector<ExperimentConfig> configs;
  for (double sp : speeds) {
    for (TcpVariant v : variants) {
      for (int s = 1; s <= seeds; ++s) {
        ExperimentConfig cfg = chain_single_flow(
            v, /*hops=*/8, /*window=*/16, Seconds(40.0),
            static_cast<std::uint64_t>(s));
        cfg.chain_spacing = Meters(200.0);  // 50 m slack below decode range
        cfg.relay_max_speed = MetersPerSecond(sp);
        configs.push_back(cfg);
      }
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::printf("=== Mobility stress: 8-hop chain, wandering relays (kbps) "
              "===\n%-14s", "max speed");
  for (TcpVariant v : variants) std::printf("%10s", variant_name(v));
  std::printf("\n");

  std::size_t run = 0;
  for (double sp : speeds) {
    std::printf("%-14s", sp == 0 ? "static" :
                (sp < 10 ? "5 m/s" : "15 m/s"));
    for (std::size_t i = 0; i < std::size(variants); ++i) {
      double thr = 0;
      for (int s = 1; s <= seeds; ++s) {
        thr += results[run++].flows[0].throughput.value() / 1e3 / seeds;
      }
      std::printf("%10.1f", thr);
    }
    std::printf("\n");
  }
}

struct Figure {
  const char* name;
  void (*print)(const BenchArgs&);
};

// Without --figure the rows print in this order, which the golden check's
// figure list (tools/check_bench_expected.cmake) mirrors.
constexpr Figure kFigures[] = {
    {"fig5_02_cwnd_chain", fig5_02_cwnd_chain},
    {"fig5_08_hops_sweep", fig5_08_hops_sweep},
    {"fig5_16_coexistence", fig5_16_coexistence},
    {"fig5_19_dynamics", fig5_19_dynamics},
    {"ablation_drai", ablation_drai},
    {"ablation_marking", ablation_marking},
    {"ecn_vs_drai", ecn_vs_drai},
    {"relwork_shootout", relwork_shootout},
    {"mobility_bench", mobility_bench},
};

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  const Figure* only = nullptr;
  auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s [--figure NAME] [--quick] [--jobs N]\nNAME:",
                 argv[0]);
    for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
  };
  auto parse_jobs = [&](const char* s) {
    const char* end = s + std::strlen(s);
    auto [ptr, ec] = std::from_chars(s, end, args.jobs);
    if (ec != std::errc() || ptr != end || args.jobs < 0) usage();
  };
  auto pick_figure = [&](std::string_view name) {
    auto it = std::find_if(std::begin(kFigures), std::end(kFigures),
                           [&](const Figure& f) { return name == f.name; });
    if (it == std::end(kFigures)) usage();
    only = it;
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--quick") {
      args.quick = true;
    } else if (a == "--jobs" && i + 1 < argc) {
      parse_jobs(argv[++i]);
    } else if (a.rfind("--jobs=", 0) == 0) {
      parse_jobs(a.c_str() + 7);
    } else if (a == "--figure" && i + 1 < argc) {
      pick_figure(argv[++i]);
    } else if (a.rfind("--figure=", 0) == 0) {
      pick_figure(std::string_view(a).substr(9));
    } else {
      usage();
    }
  }
  for (const Figure& f : kFigures) {
    if (only == nullptr || only == &f) f.print(args);
  }
  return 0;
}
