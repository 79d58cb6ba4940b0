// Shared helpers for the figure-reproduction benches.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <vector>

#include "scenario/batch_runner.h"
#include "scenario/experiment.h"
#include "stats/replicated_stats.h"

namespace muzha::bench {

inline constexpr TcpVariant kPaperVariants[] = {
    TcpVariant::kMuzha, TcpVariant::kNewReno, TcpVariant::kSack,
    TcpVariant::kVegas};

// Common bench flags: --quick (fewer points/replications for smoke runs) and
// --jobs N (worker threads for the batch pool; 0 = all hardware cores). A
// negative, malformed or out-of-range N is a usage error (exit 2).
struct BenchArgs {
  bool quick = false;
  int jobs = 0;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  auto usage = [&]() {
    std::fprintf(stderr, "usage: %s [--quick] [--jobs N]\n", argv[0]);
    std::exit(2);
  };
  auto parse_jobs = [&](const char* s) {
    const char* end = s + std::strlen(s);
    auto [ptr, ec] = std::from_chars(s, end, args.jobs);
    if (ec != std::errc() || ptr != end || args.jobs < 0) usage();
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--quick") {
      args.quick = true;
    } else if (a == "--jobs" && i + 1 < argc) {
      parse_jobs(argv[++i]);
    } else if (a.rfind("--jobs=", 0) == 0) {
      parse_jobs(a.c_str() + 7);
    } else {
      usage();
    }
  }
  return args;
}

// Single flow over an h-hop chain (Simulation 1 & 2 setup). The seed is a
// placeholder: BatchRunner overwrites it with the derived per-run seed.
inline ExperimentConfig chain_single_flow(TcpVariant v, int hops, int window,
                                          Seconds duration,
                                          std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.hops = hops;
  cfg.duration = to_sim_time(duration);
  cfg.seed = seed;
  cfg.flows.push_back({v, 0, static_cast<std::size_t>(hops),
                       SimTime::zero(), window});
  return cfg;
}

// Aggregates one per-run metric over a point's replications.
template <typename Fn>
inline ReplicatedStats replication_stats(const std::vector<ExperimentResult>& reps,
                                         Fn metric) {
  ReplicatedStats s;
  for (const ExperimentResult& r : reps) s.add(metric(r));
  return s;
}

// "mean±sd" table cell (sd omitted for single-replication runs).
inline std::string stat_cell(const ReplicatedStats& s, double scale = 1.0) {
  char buf[48];
  if (s.count() > 1) {
    std::snprintf(buf, sizeof(buf), "%.1f±%.1f", s.mean() / scale,
                  s.stddev() / scale);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", s.mean() / scale);
  }
  return buf;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace muzha::bench
