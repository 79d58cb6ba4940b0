// City-scale scenario generation.
//
// The paper evaluates Muzha on 4-7-hop chains; MANET TCP studies normally
// run over random-waypoint fields with hundreds of nodes. A city is an
// ExperimentConfig with TopologyKind::kRandomField: its FieldConfig sizes
// the field, splits it into districts and sets random-waypoint motion, and
// make_random_district_flows() draws its FTP flows, so the existing
// run_experiment / BatchRunner plumbing drives it unchanged. Background
// CBR load is listed in ExperimentConfig::cbr_flows.
//
// Placement draws from the simulation RNG (inside run_experiment), so a
// (config, seed) pair fully determines the topology. Flow endpoints are
// drawn from a private SplitMix64 stream keyed on `flow_seed` — independent
// of the simulation seed, so a sweep can vary the field while holding the
// traffic pattern fixed (and vice versa).
#pragma once

#include <vector>

#include "phy/position.h"
#include "pkt/packet.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

namespace muzha {

// Appends a kRandomField of `f.nodes` nodes, placed by the network's
// simulation RNG, and returns their ids. Experiments place nodes through
// field_positions (below); this builder is for hand-built networks.
std::vector<NodeId> build_random_field(Network& net, const FieldConfig& f);

// Axis-aligned placement/motion rectangle of district `d` (0-based). With
// districts == 1 this is the whole field. Districts are vertical strips of
// equal width separated by `district_gap`; the gaps come out of the field
// width, so strip width is (width - (districts-1)*gap) / districts.
struct Rect {
  double x0 = 0.0, x1 = 0.0;
  double y0 = 0.0, y1 = 0.0;
};
Rect district_rect(const FieldConfig& f, int d);

// District of node index i: i % districts.
inline int district_of(const FieldConfig& f, std::size_t i) {
  return static_cast<int>(i % static_cast<std::size_t>(f.districts));
}

// The placement draw sequence of a kRandomField as a pure function of
// (field, rng): one Position per node, drawn in node order, uniform in the
// node's district rectangle. `kind` must be kRandomField. A one-core run
// draws it from its network's simulation RNG, so a caller with a fresh
// Rng(seed) recovers the exact coordinates of a run with that seed. The
// sharded-run partitioner draws it that way to assign nodes to shards
// before any per-shard network exists.
std::vector<Position> field_positions(TopologyKind kind, const FieldConfig& f,
                                      Rng& rng);

// `count` FTP flows whose endpoints are confined to one district: flow j
// runs inside district j % districts, between distinct random members of
// that district, and starts uniformly in [0, start_window]. With
// districts == 1 the endpoints range over the whole field. With districts
// separated by more than carrier-sense range this yields a field whose
// shards never exchange a single frame — the only kind of field the
// sharded runner accepts. Deterministic in (count, field, flow_seed).
std::vector<FlowSpec> make_random_district_flows(int count,
                                                 const FieldConfig& f,
                                                 TcpVariant v,
                                                 std::uint64_t flow_seed,
                                                 SimTime start_window,
                                                 int window = 32);

}  // namespace muzha
