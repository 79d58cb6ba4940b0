// Channel delivery micro-benchmarks (google-benchmark): per-transmission
// cost at city scale, under the spatial index and under the brute-force
// reference scan.
//
// The channel mode is a process-wide flag, not a benchmark argument, so the
// same benchmark NAMES exist in both recordings and compare_bench.py lines
// them up directly:
//
//   bench_channel --channel_mode=brute --benchmark_out=BENCH_channel_pre.json
//   bench_channel --channel_mode=index --benchmark_out=BENCH_channel_post.json
//   python3 bench/compare_bench.py BENCH_channel_pre.json
//       BENCH_channel_post.json --require 'BM_ChannelTransmit/nodes:1000=5'
//
// Field model: BM_ChannelTransmit deploys its nodes over one fixed
// city-scale region (18 x 18 km), so the node count IS the field density:
// nodes:100 is the sparse field, nodes:1000 the dense one (10x the node
// density, ~3 carrier-sense neighbors per transmitter — a connected multihop
// ad hoc field). This is the regime the index targets: the brute-force scan
// pays for every node in the region on every transmission, the grid only
// for the 3x3 cell neighborhood.
//
// BM_ChannelTransmitCrowded is the deliberate worst case: the region is
// shrunk until ~16 nodes sit inside carrier-sense range, so per-transmission
// cost is dominated by genuine delivery work (two scheduled signal events
// per in-range receiver in BOTH modes) rather than by receiver lookup. The
// index still wins, but modestly — the recorded ratio documents that the
// speedup comes from skipping out-of-range nodes, not from magic.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string_view>
#include <vector>

#include "net/node.h"
#include "phy/channel.h"
#include "phy/wireless_phy.h"
#include "pkt/packet.h"
#include "scenario/city.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace {

using namespace muzha;

ChannelMode g_mode = ChannelMode::kSpatialIndex;

// The fixed deployment region for BM_ChannelTransmit: at 1000 nodes the
// mean carrier-sense degree is n * pi * cs^2 / side^2 ~ 2.9.
constexpr double kRegionSide = 18'000.0;

// Field side giving ~`target_neighbors` nodes within cs_range on average:
// solves n * pi * cs^2 / side^2 = target.
Meters field_side(int nodes, double target_neighbors, Meters cs_range) {
  double cs = cs_range.value();
  return Meters(std::sqrt(static_cast<double>(nodes) * 3.141592653589793 *
                          cs * cs / target_neighbors));
}

// A production field: full Node stacks (device, MAC, queues) placed by the
// city generator — NOT a packed array of bare PHYs. The memory layout
// matters: the brute-force scan walks PHYs that sit a whole node's heap
// footprint apart, exactly as in a real Experiment, so its cache behavior
// here is what a city run actually pays.
struct Field {
  Network net;
  std::vector<NodeId> ids;
  Meters side;

  Field(int nodes, Meters field_side_m)
      : net(12345, PhyParams{}, NodeConfig{}, g_mode), side(field_side_m) {
    FieldConfig fc;
    fc.nodes = nodes;
    fc.width = side;
    fc.height = side;
    ids = build_random_field(net, fc);
  }

  WirelessPhy& phy(std::size_t i) { return net.node(i).device().phy(); }
};

Packet broadcast_packet() {
  Packet pkt;
  pkt.size_bytes = 1000;
  pkt.mac.type = MacFrameType::kData;
  pkt.mac.dst = kBroadcastId;
  pkt.ip.dst = kBroadcastId;  // decodable receivers count-and-drop, no replies
  return pkt;
}

// One broadcast transmission per item, rotating the sender; the simulator
// drains every signal event before the next transmission, so the item cost
// is the full deliver-to-neighborhood cycle.
void run_transmit_loop(benchmark::State& state, Field& field) {
  Packet pkt = broadcast_packet();
  SimTime duration = SimTime::from_us(500);
  std::size_t sender = 0;
  for (auto _ : state) {
    field.net.channel().transmit(field.phy(sender), pkt, duration);
    field.net.sim().run();
    sender = (sender + 1) % field.ids.size();
  }
  state.SetItemsProcessed(state.iterations());
}

// Fixed 18 km region: nodes:100 = sparse field, nodes:1000 = dense field.
void BM_ChannelTransmit(benchmark::State& state) {
  Field field(static_cast<int>(state.range(0)), Meters(kRegionSide));
  run_transmit_loop(state, field);
}
BENCHMARK(BM_ChannelTransmit)->ArgNames({"nodes"})->Arg(100)->Arg(1000);

// Worst case: region shrunk to ~16 carrier-sense neighbors per transmitter,
// where per-receiver delivery work (identical in both modes) dominates.
void BM_ChannelTransmitCrowded(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Field field(nodes,
              field_side(nodes, 16.0, PhyParams{}.cs_range));
  run_transmit_loop(state, field);
}
BENCHMARK(BM_ChannelTransmitCrowded)->ArgNames({"nodes"})->Arg(1000);

// Mobility maintenance: one set_position per item (random-waypoint tick
// shape). Under the index every call computes the mover's cell and compares
// it with the cell the PHY is filed under, re-filing it when a step crosses
// a cell edge; under brute force it is a bare store — the price of keeping
// the index current, which the transmit speedup has to beat.
void BM_ChannelMobilityChurn(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Field field(nodes, Meters(kRegionSide));
  Meters side = field.side;
  Rng rng(99);
  std::size_t mover = 0;
  for (auto _ : state) {
    WirelessPhy& phy = field.phy(mover);
    Position p = phy.position();
    // 50 m steps wander across cell boundaries without leaving the field.
    p.x = std::fmin(std::fmax(p.x + rng.uniform(-50.0, 50.0), 0.0),
                    side.value());
    p.y = std::fmin(std::fmax(p.y + rng.uniform(-50.0, 50.0), 0.0),
                    side.value());
    phy.set_position(p);
    mover = (mover + 1) % field.ids.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelMobilityChurn)->ArgNames({"nodes"})->Arg(1000);

// Packet clone cost: the channel's per-receiver copy. (Runs in every mode;
// it does not touch the channel.)
void BM_PacketClone(benchmark::State& state) {
  Packet proto;
  proto.size_bytes = 1500;
  TcpHeader h;
  h.seqno = 7;
  proto.l4 = h;
  for (auto _ : state) {
    PacketPtr p = clone_packet(proto);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketClone);

}  // namespace

// Custom main, same contract as microbench.cc: sanitized builds refuse to
// write --benchmark_out files (sanitizer timings must never become
// baselines), plus the --channel_mode flag consumed before benchmark's own
// flag parsing.
int main(int argc, char** argv) {
  int out = 1;
  for (int in = 1; in < argc; ++in) {
    std::string_view arg(argv[in]);
#ifdef MUZHA_SANITIZED
    if (arg.rfind("--benchmark_out", 0) == 0) {
      std::fprintf(stderr,
                   "bench_channel: refusing --benchmark_out in a sanitized "
                   "build (MUZHA_SANITIZE is set); sanitizer timings must "
                   "not become baselines\n");
      return 1;
    }
#endif
    if (arg == "--channel_mode=brute") {
      g_mode = ChannelMode::kBruteForce;
      continue;  // strip: benchmark would reject the unknown flag
    }
    if (arg == "--channel_mode=index") {
      g_mode = ChannelMode::kSpatialIndex;
      continue;
    }
    if (arg.rfind("--channel_mode", 0) == 0) {
      std::fprintf(stderr,
                   "bench_channel: --channel_mode must be 'brute' or "
                   "'index'\n");
      return 1;
    }
    argv[out++] = argv[in];
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
