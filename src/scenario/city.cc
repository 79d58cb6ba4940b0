#include "scenario/city.h"

#include <cmath>

#include "phy/position.h"
#include "pkt/packet.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "sim/assert.h"
#include "sim/rng.h"
#include "sim/sim_time.h"
#include "sim/units.h"

namespace muzha {

namespace {
// Manhattan grid: distance between adjacent streets.
constexpr Meters kStreetPitch = Meters(275.0);
}  // namespace

Rect district_rect(const FieldConfig& f, int d) {
  MUZHA_ASSERT(f.districts >= 1 && d >= 0 && d < f.districts,
               "district index out of range");
  if (f.districts == 1) return Rect{0.0, f.width.value(), 0.0, f.height.value()};
  double strip = (f.width.value() -
                  static_cast<double>(f.districts - 1) * f.district_gap.value()) /
                 static_cast<double>(f.districts);
  MUZHA_ASSERT(strip > 0.0, "district gaps exceed the field width");
  double x0 = static_cast<double>(d) * (strip + f.district_gap.value());
  return Rect{x0, x0 + strip, 0.0, f.height.value()};
}

std::vector<Position> field_positions(TopologyKind kind, const FieldConfig& f,
                                      Rng& rng) {
  MUZHA_ASSERT(f.nodes >= 2, "field needs at least two nodes");
  std::vector<Position> out;
  out.reserve(static_cast<std::size_t>(f.nodes));
  if (kind == TopologyKind::kRandomField) {
    for (int i = 0; i < f.nodes; ++i) {
      // districts == 1: rect is {0, width} x {0, height}, so these are the
      // exact draws (same arguments, same order) of the pre-district builder.
      Rect r = district_rect(f, district_of(f, static_cast<std::size_t>(i)));
      out.push_back({rng.uniform(r.x0, r.x1), rng.uniform(r.y0, r.y1)});
    }
    return out;
  }
  MUZHA_ASSERT(kind == TopologyKind::kManhattanGrid,
               "field_positions handles field topologies only");
  for (int i = 0; i < f.nodes; ++i) {
    // Per-district street grid: horizontal streets span the strip at pitch
    // multiples of the field, vertical streets at pitch multiples from the
    // strip's left edge. districts == 1 reduces to the original full-field
    // grid with an identical draw sequence.
    Rect r = district_rect(f, district_of(f, static_cast<std::size_t>(i)));
    std::int64_t h_streets =
        static_cast<std::int64_t>(
            std::floor((r.y1 - r.y0) / kStreetPitch.value())) +
        1;
    std::int64_t v_streets =
        static_cast<std::int64_t>(
            std::floor((r.x1 - r.x0) / kStreetPitch.value())) +
        1;
    Position p;
    // Pick a street uniformly among all streets, then a point along it.
    std::int64_t street = rng.uniform_int(0, h_streets + v_streets - 1);
    if (street < h_streets) {
      p.y = r.y0 + kStreetPitch.value() * static_cast<double>(street);
      p.x = rng.uniform(r.x0, r.x1);
    } else {
      p.x = r.x0 + kStreetPitch.value() * static_cast<double>(street - h_streets);
      p.y = rng.uniform(r.y0, r.y1);
    }
    out.push_back(p);
  }
  return out;
}

std::vector<NodeId> build_random_field(Network& net, const FieldConfig& f) {
  return add_nodes(
      net, field_positions(TopologyKind::kRandomField, f, net.sim().rng()));
}

namespace {

// Private counter-mode SplitMix64 stream for traffic generation; keeps flow
// patterns independent of the simulation RNG.
class FlowRng {
 public:
  explicit FlowRng(std::uint64_t seed) : seed_(seed) {}
  std::uint64_t next() { return splitmix64(seed_ ^ counter_++); }
  // Uniform in [0, n) by rejection-free modulo — bias is irrelevant for
  // scenario generation and modulo keeps the stream trivially portable.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0x9e3779b97f4a7c15ull;
};

}  // namespace

std::vector<FlowSpec> make_random_flows(int count, int nodes, TcpVariant v,
                                        std::uint64_t flow_seed,
                                        SimTime start_window, int window) {
  MUZHA_ASSERT(nodes >= 2, "flows need at least two nodes");
  FlowRng rng(flow_seed);
  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    FlowSpec f;
    f.variant = v;
    f.window = window;
    f.src = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(nodes)));
    do {
      f.dst = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(nodes)));
    } while (f.dst == f.src);
    f.start_time = SimTime::from_ns(static_cast<std::int64_t>(
        rng.unit() * static_cast<double>(start_window.ns())));
    flows.push_back(f);
  }
  return flows;
}

std::vector<CbrFlowSpec> make_random_cbr_flows(int count, int nodes,
                                               BitsPerSecond rate,
                                               std::uint64_t flow_seed,
                                               SimTime start_window) {
  MUZHA_ASSERT(nodes >= 2, "flows need at least two nodes");
  // Offset the seed so CBR pairs differ from the FTP pairs drawn from the
  // same flow_seed.
  FlowRng rng(splitmix64(flow_seed ^ 0xCB12CB12CB12CB12ull));
  std::vector<CbrFlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    CbrFlowSpec f;
    f.rate = rate;
    f.src = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(nodes)));
    do {
      f.dst = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(nodes)));
    } while (f.dst == f.src);
    f.start_time = SimTime::from_ns(static_cast<std::int64_t>(
        rng.unit() * static_cast<double>(start_window.ns())));
    flows.push_back(f);
  }
  return flows;
}

std::vector<FlowSpec> make_random_district_flows(int count,
                                                 const FieldConfig& f,
                                                 TcpVariant v,
                                                 std::uint64_t flow_seed,
                                                 SimTime start_window,
                                                 int window) {
  MUZHA_ASSERT(f.districts >= 1, "need at least one district");
  MUZHA_ASSERT(f.nodes >= 2 * f.districts,
               "district flows need two nodes per district");
  FlowRng rng(flow_seed);
  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(count));
  for (int j = 0; j < count; ++j) {
    int d = j % f.districts;
    // Members of district d are {d, d + D, d + 2D, ...}.
    std::uint64_t members = static_cast<std::uint64_t>(
        (f.nodes - d + f.districts - 1) / f.districts);
    FlowSpec spec;
    spec.variant = v;
    spec.window = window;
    spec.src = static_cast<std::size_t>(d) +
               static_cast<std::size_t>(rng.below(members)) *
                   static_cast<std::size_t>(f.districts);
    do {
      spec.dst = static_cast<std::size_t>(d) +
                 static_cast<std::size_t>(rng.below(members)) *
                     static_cast<std::size_t>(f.districts);
    } while (spec.dst == spec.src);
    spec.start_time = SimTime::from_ns(static_cast<std::int64_t>(
        rng.unit() * static_cast<double>(start_window.ns())));
    flows.push_back(spec);
  }
  return flows;
}

ExperimentConfig make_city_config(const CityConfig& city) {
  MUZHA_ASSERT(city.placement == TopologyKind::kRandomField ||
                   city.placement == TopologyKind::kManhattanGrid,
               "city placement must be a field topology");
  ExperimentConfig cfg;
  cfg.topology = city.placement;
  cfg.field = city.field;
  cfg.duration = city.duration;
  cfg.seed = city.seed;
  cfg.flows = make_random_flows(city.ftp_flows, city.field.nodes, city.variant,
                                city.flow_seed, city.flow_start_window);
  cfg.cbr_flows =
      make_random_cbr_flows(city.cbr_flows, city.field.nodes, city.cbr_rate,
                            city.flow_seed, city.flow_start_window);
  return cfg;
}

}  // namespace muzha
