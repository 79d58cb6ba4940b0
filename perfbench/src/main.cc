// The simulator's benchmark: one process runs one named workload with
// one seed, times every run_experiment call, checks the results, and prints
// one JSON object as the last line of stdout.
//
//   perfbench --workload chain_paper --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end");
// --trace 1 runs the workload with spans around every call into the
// simulator, then the layer microbenches, and prints the per-layer metrics,
// an attribution of the run time to layers, and the tracing overhead.
//
// Correctness: each config's result digest is recorded the first time it
// runs; every later run of the same config must reproduce it, and every run
// must keep delivered <= sent, retransmissions <= sent, a delivering flow
// on every chain run and a delivering city. A run that breaks any of these
// counts as failed; a crash ends the process without a result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "scenario/experiment.h"
#include "stats/time_series.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace muzha;

#if defined(MUZHA_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool inject_digest_mismatch = false;
  bool list_configs = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--list-configs] "
               "[--inject-digest-mismatch]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    char* end = nullptr;
    if (k == "--workload") {
      if (!value(a.workload)) return false;
    } else if (k == "--seed") {
      if (!value(v)) return false;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      if (!value(v)) return false;
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (!value(v) || (v != "0" && v != "1")) return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      if (!value(a.trace_out)) return false;
    } else if (k == "--inject-digest-mismatch") {
      a.inject_digest_mismatch = true;
    } else if (k == "--list-configs") {
      a.list_configs = true;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

// --- Correctness ----------------------------------------------------------

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::uint64_t digest_series(std::uint64_t h, const TimeSeries& s) {
  h = fnv(h, s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    h = fnv(h, bits(s[i].t.value()));
    h = fnv(h, bits(s[i].value));
  }
  return h;
}

// Digest over every flow's counters and series and the substrate aggregates.
std::uint64_t digest(const ExperimentResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const FlowResult& f : r.flows) {
    h = fnv(h, static_cast<std::uint64_t>(f.delivered));
    h = fnv(h, f.packets_sent);
    h = fnv(h, f.retransmissions);
    h = fnv(h, f.timeouts);
    h = fnv(h, f.marked_loss_events);
    h = fnv(h, f.unmarked_loss_events);
    h = fnv(h, bits(f.throughput.value()));
    h = digest_series(h, f.cwnd_trace);
    h = digest_series(h, f.throughput_series);
  }
  h = fnv(h, r.ifq_drops);
  h = fnv(h, r.mac_retry_drops);
  h = fnv(h, r.phy_collisions);
  h = fnv(h, r.channel_error_losses);
  h = fnv(h, r.cbr_packets_sent);
  return h;
}

class Checker {
 public:
  explicit Checker(bool inject_mismatch) : inject_(inject_mismatch) {}

  // Returns true when the run is correct; records the failure otherwise.
  bool check(const Experiment& e, const ExperimentResult& r) {
    ++attempted_;
    std::uint64_t d = digest(r);
    auto [it, first] = first_digest_.emplace(e.label, d);
    // Self-test hook: corrupt the first repeat run's digest, which the
    // comparison below must count as a failure.
    if (!first && inject_ && !injected_) {
      d ^= 1;
      injected_ = true;
    }
    std::string why;
    if (d != it->second) why = "digest differs from the first run";
    std::int64_t delivered_total = 0;
    for (const FlowResult& f : r.flows) {
      delivered_total += f.delivered;
      if (f.delivered < 0 ||
          static_cast<std::uint64_t>(f.delivered) > f.packets_sent) {
        why = "delivered > segments sent";
      }
      if (f.retransmissions > f.packets_sent) {
        why = "retransmissions > segments sent";
      }
      double expect_bps = static_cast<double>(f.delivered) * kPayloadBytes *
                          8.0 / f.duration.value();
      if (!std::isfinite(f.throughput.value()) ||
          std::fabs(f.throughput.value() - expect_bps) > 1e-6 * expect_bps) {
        why = "goodput disagrees with delivered segments";
      }
      if (e.hops > 0 && f.delivered <= 0) why = "chain flow delivered nothing";
    }
    if (e.hops == 0 && delivered_total <= 0) why = "city delivered nothing";
    if (why.empty()) return true;
    ++failed_;
    if (problems_.size() < 10) problems_.push_back(e.label + ": " + why);
    return false;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  bool inject_;
  bool injected_ = false;
  std::map<std::string, std::uint64_t> first_digest_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

// --- Counts taken from ExperimentResult -------------------------------------

struct Counts {
  double segments = 0, retransmissions = 0, timeouts = 0, delivered = 0;
  double ifq_drops = 0, retry_drops = 0, collisions = 0, error_losses = 0;
  double marked = 0, unmarked = 0;
  double goodput_bps = 0;

  void add(const ExperimentResult& r) {
    for (const FlowResult& f : r.flows) {
      segments += static_cast<double>(f.packets_sent);
      retransmissions += static_cast<double>(f.retransmissions);
      timeouts += static_cast<double>(f.timeouts);
      delivered += static_cast<double>(f.delivered);
      marked += static_cast<double>(f.marked_loss_events);
      unmarked += static_cast<double>(f.unmarked_loss_events);
    }
    ifq_drops += static_cast<double>(r.ifq_drops);
    retry_drops += static_cast<double>(r.mac_retry_drops);
    collisions += static_cast<double>(r.phy_collisions);
    error_losses += static_cast<double>(r.channel_error_losses);
    goodput_bps += r.total_throughput().value();
  }

  void record(Tracer& tr, int span) const {
    tr.count(span, "segments", segments);
    tr.count(span, "retransmissions", retransmissions);
    tr.count(span, "delivered", delivered);
    tr.count(span, "ifq_drops", ifq_drops);
    tr.count(span, "collisions", collisions);
  }
};

// --- The timed workload loop ------------------------------------------------
//
// On a shared 4-vCPU virtual machine the same work slows down by 20-90% for
// seconds to minutes at a time (other tenants), while one config's cost
// differs from another's by ~35%. So the run set holds many configs, every config runs
// several times, each run preceded by its setup twin, and the end-to-end
// metrics are built from each config's median run: a slow spell that hits a
// minority of a config's runs moves nothing.

struct RunStats {
  std::vector<double> run_ms;  // one per run_experiment call
  std::map<std::string, std::vector<double>> run_ms_by_config;
  std::map<std::string, std::vector<double>> setup_s_by_config;
  // Drift samples, one per run: (pass index, wall / the config's first
  // timed wall).
  std::vector<double> pass_index, ratio_to_first;
  double sim_s = 0.0;
  double wall_s = 0.0;

  double sim_per_wall() const { return wall_s > 0 ? sim_s / wall_s : 0.0; }

  // Each config's median run time, in run-set order.
  std::vector<double> config_median_ms(const Workload& w) const {
    std::vector<double> out;
    for (const Experiment& e : w.runs) {
      auto it = run_ms_by_config.find(e.label);
      if (it != run_ms_by_config.end()) out.push_back(median(it->second));
    }
    return out;
  }

  // Simulated seconds of one pass over the run set divided by the sum of
  // the configs' median wall times.
  double sim_per_wall_median(const Workload& w) const {
    double sim = 0.0;
    for (const Experiment& e : w.runs) sim += e.cfg.duration.to_seconds();
    double wall_ms = 0.0;
    for (double ms : config_median_ms(w)) wall_ms += ms;
    return wall_ms > 0 ? sim / (wall_ms / 1e3) : 0.0;
  }

  // Sum over the run set of each config's median setup-twin time.
  double setup_median_s() const {
    double sum = 0.0;
    for (const auto& [label, v] : setup_s_by_config) sum += median(v);
    return sum;
  }

  // Runs per config, as (fewest, most).
  std::pair<std::size_t, std::size_t> repeats() const {
    std::size_t lo = SIZE_MAX, hi = 0;
    for (const auto& [label, v] : run_ms_by_config) {
      lo = std::min(lo, v.size());
      hi = std::max(hi, v.size());
    }
    return {lo, hi};
  }
};

// Runs one config's setup twin and then the config itself, each under a span
// (children of one "experiment" span), checks the result, and returns the
// run's wall time in ms.
double run_one(const Experiment& e, Checker& checker, Tracer& tracer,
               int root, RunStats& stats, Counts* counts) {
  ScopedSpan span(tracer, "experiment:" + e.label, root);
  {
    ExperimentConfig twin = setup_twin(e.cfg);
    ScopedSpan setup(tracer, "setup:" + e.label, span.id());
    std::int64_t t0 = wall_ns();
    ExperimentResult r = run_experiment(twin);
    stats.setup_s_by_config[e.label].push_back(
        static_cast<double>(wall_ns() - t0) / 1e9);
    tracer.count(setup.id(), "flows", static_cast<double>(r.flows.size()));
  }
  ScopedSpan run(tracer, "run:" + e.label, span.id());
  std::int64_t t0 = wall_ns();
  ExperimentResult r = run_experiment(e.cfg);
  double ms = static_cast<double>(wall_ns() - t0) / 1e6;
  stats.run_ms.push_back(ms);
  stats.run_ms_by_config[e.label].push_back(ms);
  stats.sim_s += e.cfg.duration.to_seconds();
  stats.wall_s += ms / 1e3;
  bool ok = checker.check(e, r);
  if (tracer.enabled()) {
    Counts c;
    c.add(r);
    c.record(tracer, run.id());
    tracer.count(run.id(), "ok", ok ? 1.0 : 0.0);
  }
  if (counts != nullptr) counts->add(r);
  return ms;
}

// Untraced measurement: cycles through the run set until `budget_s` is spent,
// completing at least one full pass. Every config's first run is the digest
// reference for its repeats.
void run_timed(const Workload& w, Checker& checker, double budget_s,
               RunStats& stats, Counts& counts) {
  Tracer off(false);
  std::vector<double> first_ms(w.runs.size(), 0.0);
  std::int64_t start = wall_ns();
  for (std::size_t i = 0;; ++i) {
    std::size_t k = i % w.runs.size(), pass = i / w.runs.size();
    if (pass >= 1 && static_cast<double>(wall_ns() - start) / 1e9 >= budget_s) {
      break;
    }
    double ms = run_one(w.runs[k], checker, off, Tracer::kNoParent, stats,
                        pass == 0 ? &counts : nullptr);
    if (pass == 0) first_ms[k] = ms;
    stats.pass_index.push_back(static_cast<double>(pass));
    stats.ratio_to_first.push_back(ms / first_ms[k]);
  }
}

// Traced measurement: one full pass in which every config runs twice, once
// traced and once untraced (alternating which goes first), so the overhead
// compares the same work. The second run is the repeat digest check.
void run_traced(const Workload& w, Checker& checker, Tracer& tracer, int root,
                RunStats& traced, RunStats& untraced, Counts& counts) {
  Tracer off(false);
  for (std::size_t k = 0; k < w.runs.size(); ++k) {
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (k % 2 == 0)) {
        run_one(w.runs[k], checker, tracer, root, traced, &counts);
      } else {
        run_one(w.runs[k], checker, off, Tracer::kNoParent, untraced, nullptr);
      }
    }
  }
}

// Peak resident set of this process image. VmHWM starts afresh at exec,
// unlike ru_maxrss, which Linux carries over from the launching process
// (the Python wrapper), so it is preferred where /proc exists.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double metric_value(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

// --- Attribution (traced run) -----------------------------------------------

// Splits the mean wall time of one experiment into layer costs: each layer's
// microbench cost per op times the op count the experiment exposes from
// outside. Whatever the microbenches do not explain is the remainder.
double print_attribution(const Workload& w, const Counts& c,
                         const RunStats& stats,
                         const std::vector<Metric>& layer) {
  double n = static_cast<double>(w.runs.size());
  double mean_ms = 1e3 * stats.wall_s / static_cast<double>(stats.run_ms.size());
  bool chain = w.runs.front().hops > 0;
  double hops = 0.0, nodes = 0.0, sim_s = 0.0, muzha_share = 0.0;
  for (const Experiment& e : w.runs) {
    hops += e.hops > 0 ? e.hops : 1;  // city paths are unknown: 1 hop floor
    nodes += e.hops > 0 ? e.hops + 1 : e.cfg.field.nodes;
    sim_s += e.cfg.duration.to_seconds();
    muzha_share += e.cfg.flows.front().variant == TcpVariant::kMuzha ? 1 : 0;
  }
  hops /= n;
  nodes /= n;
  sim_s /= n;
  muzha_share /= n;
  double seg = c.segments / n;  // per experiment
  // One data frame per segment per hop and one ACK frame back per hop.
  // Each costs at least an uncontended exchange (n1); what contention adds
  // on top is left in the remainder, since no outside count exposes it.
  double frames = 2.0 * seg * hops;
  struct Row {
    const char* layer;
    double ops;
    double cost_ms;
  };
  auto ms_of = [&](const char* metric, double scale_to_ms) {
    return metric_value(layer, metric) * scale_to_ms;
  };
  std::vector<Row> rows = {
      {"mac+phy frame exchange", frames, ms_of("mac.frame_us.n1", 1e-3)},
      {"tcp ack + next segment", seg,
       ms_of("tcp.ack_ns.muzha", 1e-6) * muzha_share +
           ms_of("tcp.ack_ns.newreno", 1e-6) * (1.0 - muzha_share)},
      {"net forward (relay device_send)", std::max(0.0, frames - seg),
       ms_of("net.forward_ns", 1e-6)},
      {"core DRAI stamp", frames * muzha_share, ms_of("core.stamp_ns", 1e-6)},
      {"core estimator ticks", nodes * sim_s / 0.05 *
                                   (chain ? muzha_share : 1.0),
       ms_of("core.estimator_tick_ns", 1e-6)},
      {"phy set_position", chain ? 0.0 : nodes * sim_s / 0.25,
       ms_of("phy.set_position_ns", 1e-6)},
      // A flow discovers its route once, and again after a break, which
      // shows from outside as a retransmission timeout.
      {"routing discovery (flows + RTOs)",
       static_cast<double>(w.runs.front().cfg.flows.size()) + c.timeouts / n,
       ms_of("routing.discovery_ms", 1.0)},
  };
  std::printf("attribution of one experiment's mean wall time (%.3f ms; "
              "run_ms_p50 %.3f ms):\n",
              mean_ms, median(stats.run_ms));
  double explained = 0.0;
  for (const Row& r : rows) {
    double ms = r.ops * r.cost_ms;
    explained += ms;
    std::printf("  %-34s %12.0f ops x %10.6f ms = %9.3f ms  %6.1f%%\n",
                r.layer, r.ops, r.cost_ms, ms, 100.0 * ms / mean_ms);
  }
  double rest = mean_ms - explained;
  std::printf("  %-34s %48.3f ms  %6.1f%%\n", "unattributed remainder", rest,
              100.0 * rest / mean_ms);
  return 100.0 * rest / mean_ms;
}

int run(const Args& args) {
  Workload w;
  if (!make_workload(args.workload, args.seed, w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.list_configs) {
    for (const Experiment& e : w.runs) std::printf("%s\n", describe(e).c_str());
    return 0;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "build=%s configs=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              w.runs.size());

  Tracer tracer(args.trace);
  int root = tracer.begin("workload:" + w.name, Tracer::kNoParent);
  Checker checker(args.inject_digest_mismatch);

  // Warm-up: untimed runs for about a second (lazy pools, page faults, and
  // a CPU that was idle before the run). Their digests are the references
  // for the later runs of their configs.
  std::int64_t warm_start = wall_ns();
  for (std::size_t k = 0;
       k == 0 || (k < w.runs.size() &&
                  static_cast<double>(wall_ns() - warm_start) / 1e9 < 1.0);
       ++k) {
    ScopedSpan span(tracer, "warmup:" + w.runs[k].label, root);
    checker.check(w.runs[k], run_experiment(w.runs[k].cfg));
  }

  RunStats untraced, traced;
  Counts counts;
  if (args.trace) {
    run_traced(w, checker, tracer, root, traced, untraced, counts);
  } else {
    run_timed(w, checker, args.seconds, untraced, counts);
  }
  std::printf("runs=%zu failed=%llu/%llu failed_frac=%.6f\n",
              untraced.run_ms.size() + traced.run_ms.size(),
              static_cast<unsigned long long>(checker.failed()),
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<double>(checker.failed()) /
                  static_cast<double>(checker.attempted()));
  for (const std::string& p : checker.problems()) {
    std::printf("  FAILED %s\n", p.c_str());
  }
  std::printf("goodput per run (mean over the run set): %.1f bit/s\n",
              counts.goodput_bps / static_cast<double>(w.runs.size()));

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::size_t n = untraced.run_ms.size();
    std::vector<double> per_config = untraced.config_median_ms(w);
    std::size_t beyond = samples_beyond(per_config.size(), w.tail_percentile);
    metrics = {
        {"sim_s_per_wall_s", "s/s", untraced.sim_per_wall_median(w)},
        {"run_ms_p50", "ms", median(per_config)},
        {"run_ms_tail", "ms", percentile(per_config, w.tail_percentile)},
        {"setup_s", "s", untraced.setup_median_s()},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    std::printf("drift: %+.3f%% wall time per pass over the run set, from "
                "%zu runs in %.0f passes, relative to each config's first "
                "timed run (warm-up excluded)\n",
                100.0 * slope(untraced.pass_index, untraced.ratio_to_first), n,
                untraced.pass_index.empty() ? 0.0
                                            : untraced.pass_index.back() + 1);
    std::printf("end-to-end metrics:\n");
    for (const Metric& m : metrics) print_metric(m);
    auto [fewest, most] = untraced.repeats();
    std::printf("  metrics use each config's median of %zu-%zu runs; "
                "run_ms_tail is p%g of the %zu configs, %zu beyond it\n",
                fewest, most, w.tail_percentile, per_config.size(), beyond);
    std::printf("  all %zu runs: p50 %.3f ms, p90 %.3f ms, %.3f sim s per "
                "wall s\n",
                n, median(untraced.run_ms), percentile(untraced.run_ms, 90.0),
                untraced.sim_per_wall());
  } else {
    int layers_span = tracer.begin("layers", root);
    LayerConfig lc;
    lc.seed = args.seed;
    lc.event_depth = w.event_depth;
    lc.budget_s = std::max(0.02, args.seconds / 2.0 / 16.0);
    metrics = run_layer_benches(lc, tracer, layers_span);
    tracer.end(layers_span);
    auto add = [&](const char* name, const char* unit, double v) {
      metrics.push_back({name, unit, v});
    };
    add("tcp.segments_sent", "count", counts.segments);
    add("tcp.retransmissions", "count", counts.retransmissions);
    add("tcp.timeouts", "count", counts.timeouts);
    add("tcp.delivered", "count", counts.delivered);
    add("tcp.useful_ratio", "ratio",
        counts.segments > 0 ? counts.delivered / counts.segments : 0.0);
    add("net.ifq_drops", "count", counts.ifq_drops);
    add("mac.retry_drops", "count", counts.retry_drops);
    add("phy.collisions", "count", counts.collisions);
    add("phy.error_losses", "count", counts.error_losses);
    add("core.marked_losses", "count", counts.marked);
    add("core.unmarked_losses", "count", counts.unmarked);
    double overhead = traced.sim_per_wall() - untraced.sim_per_wall();
    add("trace.overhead_sim_s_per_wall_s", "s/s", overhead);
    double rest = print_attribution(w, counts, untraced, metrics);
    add("attr.unattributed_pct", "%", rest);
    std::printf("tracing overhead: traced %.3f - untraced %.3f = %+.3f "
                "sim s per wall s\n",
                traced.sim_per_wall(), untraced.sim_per_wall(), overhead);
    tracer.end(root);
    std::printf("self time by span kind:\n");
    for (const auto& [name, ms] : tracer.self_ms_by_name()) {
      std::printf("  %-20s %12.3f ms\n", name.c_str(), ms);
    }
    std::printf("per-layer metrics:\n");
    for (const Metric& m : metrics) print_metric(m);
    if (!args.trace_out.empty()) {
      if (!tracer.write_json(args.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", tracer.size(),
                  args.trace_out.c_str());
    }
  }
  print_json(checker.failed() == 0, checker.attempted(), checker.failed(),
             metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return perfbench::usage(argv[0]);
  // Build guard: timings from a sanitized or unoptimized build must never be
  // reported as the benchmark's numbers.
  if (perfbench::kSanitized || !perfbench::kOptimized ||
      std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s%s build "
                 "(need an unsanitized Release build)\n",
                 perfbench::kSanitized ? "sanitized " : "",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  return perfbench::run(args);
}
