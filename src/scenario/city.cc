#include "scenario/city.h"

#include "phy/position.h"
#include "pkt/packet.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "sim/assert.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

namespace muzha {

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
  MUZHA_ASSERT(kind == TopologyKind::kRandomField,
               "field_positions handles kRandomField only");
  MUZHA_ASSERT(f.nodes >= 2, "field needs at least two nodes");
  std::vector<Position> out;
  out.reserve(static_cast<std::size_t>(f.nodes));
  for (int i = 0; i < f.nodes; ++i) {
    // districts == 1: rect is {0, width} x {0, height}, so these are the
    // exact draws (same arguments, same order) of the pre-district builder.
    Rect r = district_rect(f, district_of(f, static_cast<std::size_t>(i)));
    out.push_back({rng.uniform(r.x0, r.x1), rng.uniform(r.y0, r.y1)});
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

}  // namespace muzha
