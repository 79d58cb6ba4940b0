// Declarative experiment runner — the high-level public API.
//
// Describe a topology, a set of TCP flows (variant, endpoints, start time,
// advertised window `window_`) and a duration; run_experiment() builds the
// whole stack, runs it, and returns per-flow throughput, retransmissions,
// CWND traces and throughput-dynamics series. Every figure and example is a
// thin wrapper over this, the mobile chains of mobility_bench and
// mobility_demo included; bench_channel builds its networks by hand
// (scenario/network.h).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/drai.h"
#include "net/node.h"
#include "scenario/network.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "stats/time_series.h"
#include "tcp/tcp_agent.h"

namespace muzha {

// The paper's protagonists (Tahoe..Muzha) plus the related-work protocols
// its Ch. 3 surveys: TCP-DOOR, ADTCP (end-to-end), TCP Jersey and TCP
// RoVegas (router-assisted).
enum class TcpVariant {
  kTahoe,
  kReno,
  kNewReno,
  kSack,
  kVegas,
  kMuzha,
  kDoor,
  kAdtcp,
  kJersey,
  kRoVegas,
  // NewReno + RFC 3168 ECN over RED-marking routers (single-bit feedback,
  // the paper's Sec. 3.2 comparison point for DRAI).
  kNewRenoEcn,
  // End-to-end bandwidth estimation (paper reference [24]).
  kWestwood,
};

// Routers a variant needs on every node of its path.
enum class RouterAssist {
  kNone,
  kDrai,    // DRAI-stamping estimators; Jersey reads their warning marks
  kRedEcn,  // RED/ECN single-bit markers
};

// One row of the variant table, the only list of variants: the experiment
// build, the CLI and the tests all read it.
struct VariantInfo {
  TcpVariant variant;
  const char* name;
  std::unique_ptr<TcpAgent> (*make)(Simulator& sim, Node& node, TcpConfig cfg);
  RouterAssist routers;
  bool adtcp_sink;  // ADTCP is receiver-assisted: its sink classifies losses
};

// Every variant, in enum order.
std::span<const VariantInfo> variant_table();

const char* variant_name(TcpVariant v);

// The variant whose variant_name matches `name` ignoring case, if any.
std::optional<TcpVariant> parse_variant(std::string_view name);

// Factory for a sender of the given variant (Muzha included).
std::unique_ptr<TcpAgent> make_tcp_agent(TcpVariant v, Simulator& sim,
                                         Node& node, TcpConfig cfg);

struct FlowSpec {
  TcpVariant variant = TcpVariant::kNewReno;
  std::size_t src = 0;  // node index
  std::size_t dst = 0;  // node index
  SimTime start_time;
  int window = 32;  // NS-2 window_
};

enum class TopologyKind {
  kChain,
  kCross,
  // City-scale field (src/scenario/city.h): N nodes placed uniformly at
  // random by the seeded simulation RNG, optional random-waypoint motion,
  // sized by `field`.
  kRandomField,
};

// Geometry and motion of the kRandomField city.
struct FieldConfig {
  int nodes = 200;
  Meters width = Meters(2000.0);
  Meters height = Meters(2000.0);
  // Random-waypoint motion when true: speeds uniform in [1, 10] m/s, a 2 s
  // pause at each waypoint, positions updated every `mobility_tick`.
  bool mobile = true;
  SimTime mobility_tick = SimTime::from_ms(250);
  // City districts: the field splits into `districts` vertical strips of
  // equal width separated by `district_gap` of empty ground (the overall
  // `width` includes the gaps). Node i belongs to district i % districts;
  // placement AND random-waypoint motion are confined to the node's strip,
  // so district membership is invariant over the whole run — which is what
  // lets a sharded run cut the field along the gaps and keep node->shard
  // ownership static. districts == 1 is the classic single-rectangle field
  // and draws the exact same RNG sequence as before the knob existed.
  int districts = 1;
  Meters district_gap = Meters(1100.0);
};

// Background CBR load (no transport; competes for airtime and queues).
struct CbrFlowSpec {
  std::size_t src = 0;  // node index
  std::size_t dst = 0;  // node index
  BitsPerSecond rate = BitsPerSecond(100'000.0);
  std::uint32_t packet_size_bytes = 512;
  SimTime start_time;
};

struct ExperimentConfig {
  TopologyKind topology = TopologyKind::kChain;
  int hops = 4;
  // Neighbour distance of a kChain. A cross keeps kChainSpacing.
  Meters chain_spacing = kChainSpacing;
  // Random-waypoint motion of a kChain's interior relays when positive:
  // each wanders in a band around its chain slot at speeds from 1 m/s up to
  // this maximum (constants in experiment.cc). 0 keeps the chain static.
  MetersPerSecond relay_max_speed = MetersPerSecond(0.0);
  FieldConfig field;  // used by kRandomField only
  SimTime duration = SimTime::from_seconds(30.0);
  std::uint64_t seed = 1;
  std::vector<FlowSpec> flows;
  std::vector<CbrFlowSpec> cbr_flows;
  // Run the channel's O(attached) reference scan instead of the spatial
  // index — the oracle side of the differential tests. Results must be
  // bit-identical either way.
  bool brute_force_channel = false;
  // DRAI estimator thresholds of the routers, which are on iff some flow's
  // variant needs them (Muzha, Jersey). Otherwise a NewReno+ECN flow turns
  // on RED/ECN routers (relwork/ecn.h).
  DraiConfig drai;
  // Random per-packet channel loss (0 = none).
  double uniform_error_rate = 0.0;
  // Ablation: disable Muzha's marked/unmarked loss discrimination.
  bool muzha_loss_discrimination = true;
  // AODV by default (Table 5.1); static routing isolates transport effects.
  bool static_routing = false;
  // Parallel execution over decoupled districts
  // (src/scenario/sharded_experiment.h): deal the field's district strips
  // to `shards` spatial slices, one event core per shard, each running to
  // the horizon on its own. The districts must be farther apart than
  // carrier-sense range, so no frame crosses between shards. shards == 1
  // builds and runs on the calling thread. shards > 1 is deterministic
  // run-to-run and across `shard_jobs` values, but draws per-shard RNG
  // streams, so its results are a different (equally valid) sample than
  // shards == 1.
  int shards = 1;
  // Worker threads for the shard pool; 0 means one per shard.
  int shard_jobs = 0;
};

struct FlowResult {
  TcpVariant variant;
  std::int64_t delivered = 0;          // in-order segments at the sink
  Seconds duration = Seconds(0.0);     // flow start -> experiment end
  BitsPerSecond throughput =
      BitsPerSecond(0.0);              // goodput: delivered bits / duration
  std::uint64_t packets_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  TimeSeries cwnd_trace;
  TimeSeries throughput_series;
  // Muzha-only diagnostics (0 for other variants).
  std::uint64_t marked_loss_events = 0;
  std::uint64_t unmarked_loss_events = 0;
};

struct ExperimentResult {
  std::vector<FlowResult> flows;
  // Substrate-level aggregates.
  std::uint64_t ifq_drops = 0;         // drop-tail losses (congestion)
  // Every MAC retry-limit exhaustion (a link failure), also those whose
  // packet the originator salvaged; the lost ones are Node's kDropMac.
  std::uint64_t mac_retry_drops = 0;
  std::uint64_t phy_collisions = 0;
  std::uint64_t channel_error_losses = 0;
  std::uint64_t cbr_packets_sent = 0;  // background-load injection count

  BitsPerSecond total_throughput() const;
  // Per-flow goodput in bit/s (convenience for stats helpers).
  std::vector<double> flow_throughputs() const;
};

ExperimentResult run_experiment(const ExperimentConfig& cfg);

// Paper defaults: 1460 B payload segments, 40 B ACKs (Sec. 5.3).
inline constexpr std::uint32_t kPayloadBytes = 1460;
inline constexpr std::uint32_t kSegmentBytes = 1500;

// Bin width of FlowResult::throughput_series.
inline constexpr SimTime kThroughputBin = SimTime::from_seconds(1.0);

}  // namespace muzha
