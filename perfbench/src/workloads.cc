#include "workloads.h"

#include <cstdio>
#include <numeric>

#include "phy/phy_params.h"
#include "phy/position.h"
#include "scenario/city.h"
#include "sim/rng.h"
#include "util.h"

namespace perfbench {

using namespace muzha;

namespace {

// Simulated seconds of one city run. Flows start within the first 0.5 s, so
// they are active for at least 90% of it.
constexpr double kCitySeconds = 5.0;
// City configs per run set. One city's cost varies by ~35% (standard
// deviation over mean) with its placement and flow endpoints, at 5 s and at
// 10 s alike, so a run set averages many short cities rather than a few long
// ones. 40 cities fit ~6 runs each into 45 s, enough for a per-config best.
constexpr int kCityConfigs = 40;
constexpr int kCityMinConnectedFlows = 2;
// Replications of each chain config per run set, for the same reason: one
// chain run's cost varies ~10% with its MAC backoff draws.
constexpr int kChainReplicas = 4;

ExperimentConfig chain_config(TcpVariant v, int hops, double error_rate,
                              std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.hops = hops;
  cfg.duration = SimTime::from_seconds(30.0);
  cfg.seed = seed;
  cfg.uniform_error_rate = error_rate;
  cfg.flows.push_back(
      {v, 0, static_cast<std::size_t>(hops), SimTime::zero(), 32});
  return cfg;
}

// The paper's Simulation 1/2 sweep: one FTP flow, window 32, AODV, 30 s, over
// 4/8/16-hop chains for the four compared variants, plus Muzha and NewReno
// at 8 hops under 1% random loss (the marked/unmarked discrimination case).
void make_chain_paper(std::uint64_t seed, Workload& w) {
  const TcpVariant variants[] = {TcpVariant::kMuzha, TcpVariant::kNewReno,
                                 TcpVariant::kSack, TcpVariant::kVegas};
  std::uint64_t salt = 0;
  for (int r = 0; r < kChainReplicas; ++r) {
    std::string rep = "/r" + std::to_string(r);
    for (int hops : {4, 8, 16}) {
      for (TcpVariant v : variants) {
        w.runs.push_back({std::string(variant_name(v)) + "/h" +
                              std::to_string(hops) + rep,
                          chain_config(v, hops, 0.0, mix_seed(seed, salt++)),
                          hops});
      }
    }
    for (TcpVariant v : {TcpVariant::kMuzha, TcpVariant::kNewReno}) {
      w.runs.push_back({std::string(variant_name(v)) + "/h8/loss0.01" + rep,
                        chain_config(v, 8, 0.01, mix_seed(seed, salt++)), 8});
    }
  }
  // The tail is taken over the 56 per-config medians: p80 leaves 11 beyond.
  w.tail_percentile = 80.0;
  // 17 nodes at most, each with an estimator, MAC and TCP/AODV timers.
  w.event_depth = 64;
}

// Flows of `cfg` whose endpoints are connected over decode-range links in
// the initial placement. run_experiment places nodes with the same draws
// (field_positions with the config's seed), so this sees the real field.
int connected_flows(const ExperimentConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<Position> pos = field_positions(cfg.topology, cfg.field, rng);
  std::vector<std::size_t> parent(pos.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  const Meters range = PhyParams{}.rx_range;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (distance(pos[i], pos[j]) <= range) parent[find(i)] = find(j);
    }
  }
  int n = 0;
  for (const FlowSpec& f : cfg.flows) n += find(f.src) == find(f.dst) ? 1 : 0;
  return n;
}

void make_city(std::uint64_t seed, int shards, Workload& w) {
  for (int i = 0; i < kCityConfigs; ++i) {
    // Redraw a city until every flow starts with a route to find: a field
    // whose flows are all cut off delivers nothing, which the correctness
    // check would count as a failure.
    ExperimentConfig cfg;
    for (std::uint64_t attempt = 0;; ++attempt) {
      std::uint64_t salt = 2 * (i + kCityConfigs * attempt);
      cfg = city_config(kCitySeconds, mix_seed(seed, salt),
                        mix_seed(seed, salt + 1), shards);
      if (connected_flows(cfg) >= kCityMinConnectedFlows) break;
    }
    w.runs.push_back({"city/" + std::to_string(i), cfg, 0});
  }
  // The tail is taken over the 40 per-config medians: p75 leaves 10 beyond.
  w.tail_percentile = 75.0;
  // 1000 nodes, each with a mobility tick and an estimator sample armed,
  // plus MAC and AODV timers on the active ones.
  w.event_depth = 2048;
}

}  // namespace

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& out) {
  out = Workload{};
  out.name = name;
  if (name == "chain_paper") {
    make_chain_paper(seed, out);
  } else if (name == "city_mobile") {
    make_city(seed, 1, out);
  } else if (name == "city_sharded") {
    make_city(seed, 4, out);
  } else {
    return false;
  }
  return true;
}

ExperimentConfig setup_twin(const ExperimentConfig& cfg) {
  ExperimentConfig twin = cfg;
  twin.duration = SimTime::zero();
  return twin;
}

ExperimentConfig city_config(double duration_s, std::uint64_t seed,
                             std::uint64_t flow_seed, int shards) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = 1000;
  cfg.field.districts = 4;
  cfg.field.district_gap = Meters(1100.0);
  cfg.field.width = Meters(4 * 2500.0 + 3 * 1100.0);
  cfg.field.height = Meters(4000.0);
  cfg.field.mobile = true;
  cfg.duration = SimTime::from_seconds(duration_s);
  cfg.seed = seed;
  cfg.flows = make_random_district_flows(8, cfg.field, TcpVariant::kMuzha,
                                         flow_seed, SimTime::from_ms(500));
  cfg.shards = shards;
  cfg.shard_jobs = shards;
  return cfg;
}

std::string describe(const Experiment& e) {
  std::string s = e.label + " seed=" + std::to_string(e.cfg.seed) + " flows=";
  for (const FlowSpec& f : e.cfg.flows) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%zu->%zu@%lldns,", f.src, f.dst,
                  static_cast<long long>(f.start_time.ns()));
    s += buf;
  }
  return s;
}

}  // namespace perfbench
