// muzha_cli: run an arbitrary experiment from the command line and dump the
// results (optionally as CSV + gnuplot for the time series).
//
//   muzha_cli --variant muzha,newreno --topology chain --hops 8
//             --window 32 --duration 30 --seed 1 --loss 0.01
//             [--static-routing] [--csv prefix]
//
// One flow is created per comma-separated variant, all sharing the
// first-to-last path (chain) or the two arms (cross, first two variants).
// A malformed number prints a message and the usage, and exits 2; so does a
// config that validate() refuses, with one line per broken rule.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "scenario/experiment.h"
#include "sim/sim_time.h"
#include "sim/units.h"
#include "stats/export.h"
#include "stats/fairness.h"

namespace {

using namespace muzha;

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--variant v1,v2,...] [--topology chain|cross]\n"
      "          [--hops N] [--window N] [--duration SECONDS] [--seed N]\n"
      "          [--loss RATE] [--static-routing] [--csv PREFIX]\n"
      "variants (any case):",
      prog);
  for (const VariantInfo& v : variant_table()) {
    std::fprintf(stderr, " %s", v.name);
  }
  std::fprintf(stderr, "\n");
}

// Parses all of `text` as a T: false on an empty token, trailing text, a
// value outside T's range or a non-finite double.
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<TcpVariant> variants{TcpVariant::kMuzha};
  ExperimentConfig cfg;
  cfg.hops = 4;
  Seconds duration = Seconds(30.0);
  int window = 32;
  std::string csv_prefix;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](auto& out) {
      const char* text = next();
      if (!parse_number(text, out)) {
        std::fprintf(stderr, "%s: '%s' is not a valid number\n", arg.c_str(),
                     text);
        usage(argv[0]);
        std::exit(2);
      }
    };
    if (arg == "--variant") {
      variants.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        std::optional<TcpVariant> v = parse_variant(tok);
        if (!v) {
          std::fprintf(stderr, "unknown variant '%s'\n", tok.c_str());
          usage(argv[0]);
          return 2;
        }
        variants.push_back(*v);
      }
    } else if (arg == "--topology") {
      std::string t = next();
      if (t == "chain") {
        cfg.topology = TopologyKind::kChain;
      } else if (t == "cross") {
        cfg.topology = TopologyKind::kCross;
      } else {
        std::fprintf(stderr, "unknown topology '%s'\n", t.c_str());
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--hops") {
      number(cfg.hops);
    } else if (arg == "--window") {
      number(window);
    } else if (arg == "--duration") {
      double seconds = 0.0;
      number(seconds);
      duration = Seconds(seconds);
    } else if (arg == "--seed") {
      number(cfg.seed);
    } else if (arg == "--loss") {
      number(cfg.uniform_error_rate);
    } else if (arg == "--static-routing") {
      cfg.static_routing = true;
    } else if (arg == "--csv") {
      csv_prefix = next();
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  if (variants.empty()) {
    usage(argv[0]);
    return 2;
  }
  // Past half the clock's range the conversion, or a timer set past the
  // horizon, could overflow the 64-bit clock; under 1 ns the run is empty.
  if (duration.value() > SimTime::max().to_seconds() / 2 ||
      to_sim_time(duration) <= SimTime::zero()) {
    std::fprintf(stderr,
                 "--duration must be > 0 (and fit the simulation clock)\n");
    usage(argv[0]);
    return 2;
  }
  cfg.duration = to_sim_time(duration);

  // Flow placement: chain => all flows end-to-end; cross => first flow on
  // the horizontal arm, second on the vertical, rest alternate.
  for (std::size_t i = 0; i < variants.size(); ++i) {
    FlowSpec f;
    f.variant = variants[i];
    f.window = window;
    if (cfg.topology == TopologyKind::kCross && i % 2 == 1) {
      f.src = static_cast<std::size_t>(cfg.hops) + 1;
      f.dst = static_cast<std::size_t>(2 * cfg.hops);
    } else {
      f.src = 0;
      f.dst = static_cast<std::size_t>(cfg.hops);
    }
    cfg.flows.push_back(f);
  }
  if (std::vector<std::string> errors = validate(cfg); !errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    usage(argv[0]);
    return 2;
  }

  ExperimentResult res = run_experiment(cfg);

  std::printf("%-12s %12s %10s %8s %8s\n", "variant", "kbps", "sent", "retx",
              "timeouts");
  for (const FlowResult& f : res.flows) {
    std::printf("%-12s %12.1f %10llu %8llu %8llu\n", variant_name(f.variant),
                f.throughput.value() / 1e3,
                static_cast<unsigned long long>(f.packets_sent),
                static_cast<unsigned long long>(f.retransmissions),
                static_cast<unsigned long long>(f.timeouts));
  }
  if (res.flows.size() > 1) {
    auto thr = res.flow_throughputs();
    std::printf("Jain fairness index: %.3f\n", jain_fairness_index(thr));
  }
  std::printf("substrate: %llu IFQ drops, %llu MAC retry drops, "
              "%llu collisions\n",
              static_cast<unsigned long long>(res.ifq_drops),
              static_cast<unsigned long long>(res.mac_retry_drops),
              static_cast<unsigned long long>(res.phy_collisions));

  if (!csv_prefix.empty()) {
    std::vector<NamedSeries> cwnd, thrput;
    for (const FlowResult& f : res.flows) {
      std::string name = variant_name(f.variant);
      cwnd.push_back({name + "_cwnd", f.cwnd_trace});
      thrput.push_back({name + "_bps", f.throughput_series});
    }
    bool ok = write_csv(csv_prefix + "_cwnd.csv", cwnd) &&
              write_csv(csv_prefix + "_throughput.csv", thrput) &&
              write_gnuplot_script(csv_prefix + "_cwnd.gp",
                                   csv_prefix + "_cwnd.csv",
                                   "congestion window", cwnd, "segments") &&
              write_gnuplot_script(csv_prefix + "_throughput.gp",
                                   csv_prefix + "_throughput.csv",
                                   "throughput", thrput, "bits/s");
    std::printf("%s CSV/gnuplot files with prefix '%s'\n",
                ok ? "wrote" : "FAILED to write", csv_prefix.c_str());
    if (!ok) return 1;
  }
  return 0;
}
