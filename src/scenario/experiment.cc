#include "scenario/experiment.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <numeric>

#include "app/cbr.h"
#include "core/tcp_muzha.h"
#include "net/node.h"
#include "net/trace.h"
#include "phy/channel.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "relwork/adtcp.h"
#include "relwork/ecn.h"
#include "relwork/tcp_door.h"
#include "relwork/tcp_jersey.h"
#include "relwork/tcp_rovegas.h"
#include "relwork/tcp_westwood.h"
#include "scenario/city.h"
#include "scenario/mobility.h"
#include "scenario/network.h"
#include "scenario/sharded_experiment.h"
#include "scenario/stack.h"
#include "sim/assert.h"
#include "sim/rng.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "stats/time_series.h"
#include "tcp/tcp_agent.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_variants.h"
#include "tcp/tcp_vegas.h"

namespace muzha {

namespace {

template <class T>
std::unique_ptr<TcpAgent> make(Simulator& sim, Node& node, TcpConfig cfg) {
  return std::make_unique<T>(sim, node, cfg);
}

constexpr VariantInfo kVariants[] = {
    {TcpVariant::kTahoe, "Tahoe", &make<TcpTahoe>, RouterAssist::kNone, false},
    {TcpVariant::kReno, "Reno", &make<TcpReno>, RouterAssist::kNone, false},
    {TcpVariant::kNewReno, "NewReno", &make<TcpNewReno>, RouterAssist::kNone,
     false},
    {TcpVariant::kSack, "SACK", &make<TcpSack>, RouterAssist::kNone, false},
    {TcpVariant::kVegas, "Vegas", &make<TcpVegas>, RouterAssist::kNone, false},
    {TcpVariant::kMuzha, "Muzha", &make<TcpMuzha>, RouterAssist::kDrai, false},
    {TcpVariant::kDoor, "DOOR", &make<TcpDoor>, RouterAssist::kNone, false},
    {TcpVariant::kAdtcp, "ADTCP", &make<AdtcpSender>, RouterAssist::kNone,
     true},
    {TcpVariant::kJersey, "Jersey", &make<TcpJersey>, RouterAssist::kDrai,
     false},
    {TcpVariant::kRoVegas, "RoVegas", &make<TcpRoVegas>, RouterAssist::kNone,
     false},
    {TcpVariant::kNewRenoEcn, "NewReno+ECN", &make<TcpNewRenoEcn>,
     RouterAssist::kRedEcn, false},
    {TcpVariant::kWestwood, "Westwood", &make<TcpWestwood>,
     RouterAssist::kNone, false},
};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kVariants); ++i) {
    if (kVariants[i].variant != static_cast<TcpVariant>(i)) return false;
  }
  return true;
}
static_assert(rows_in_enum_order(), "variant_info indexes kVariants by enum");

const VariantInfo& variant_info(TcpVariant v) {
  auto i = static_cast<std::size_t>(v);
  MUZHA_ASSERT(i < std::size(kVariants), "variant missing from the table");
  return kVariants[i];
}

// Random-waypoint motion of the field topologies.
constexpr MetersPerSecond kFieldMaxSpeed = MetersPerSecond(10.0);
constexpr SimTime kFieldPause = SimTime::from_seconds(2.0);
// Random-waypoint motion of a chain's interior relays: a square band of
// ±kRelayBand around each relay's chain slot, sized so that on a 200 m
// chain links break intermittently rather than permanently.
constexpr double kRelayBand = 35.0;  // m
constexpr SimTime kRelayPause = SimTime::from_seconds(1.0);
constexpr SimTime kRelayTick = SimTime::from_ms(100);

// Shortest-hop next hops over the decode-range graph of `pos`: one BFS per
// destination, whose predecessor links become the members' table entries.
void install_static_routes(Network& net,
                           const std::vector<std::size_t>& members,
                           const std::vector<Position>& pos, Meters rx_range) {
  const std::size_t n = pos.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (distance(pos[i], pos[j]) <= rx_range) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
  }
  std::vector<std::size_t> next;  // next[v]: v's next hop toward dst
  std::vector<std::size_t> queue;
  for (std::size_t dst = 0; dst < n; ++dst) {
    next.assign(n, SIZE_MAX);
    next[dst] = dst;
    queue.assign(1, dst);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (std::size_t v : adj[queue[head]]) {
        if (next[v] != SIZE_MAX) continue;
        next[v] = queue[head];
        queue.push_back(v);
      }
    }
    for (std::size_t li = 0; li < members.size(); ++li) {
      std::size_t gi = members[li];
      if (gi == dst || next[gi] == SIZE_MAX) continue;
      net.static_routing(li).add_route(static_cast<NodeId>(dst),
                                       static_cast<NodeId>(next[gi]));
    }
  }
}

}  // namespace

std::span<const VariantInfo> variant_table() { return kVariants; }

const char* variant_name(TcpVariant v) { return variant_info(v).name; }

std::optional<TcpVariant> parse_variant(std::string_view name) {
  auto same = [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) ==
           std::tolower(static_cast<unsigned char>(b));
  };
  for (const VariantInfo& v : kVariants) {
    if (std::ranges::equal(std::string_view(v.name), name, same)) {
      return v.variant;
    }
  }
  return std::nullopt;
}

std::unique_ptr<TcpAgent> make_tcp_agent(TcpVariant v, Simulator& sim,
                                         Node& node, TcpConfig cfg) {
  return variant_info(v).make(sim, node, cfg);
}

BitsPerSecond ExperimentResult::total_throughput() const {
  BitsPerSecond t = BitsPerSecond(0.0);
  for (const FlowResult& f : flows) t += f.throughput;
  return t;
}

std::vector<double> ExperimentResult::flow_throughputs() const {
  std::vector<double> out;
  out.reserve(flows.size());
  for (const FlowResult& f : flows) out.push_back(f.throughput.value());
  return out;
}

std::vector<Position> node_positions(const ExperimentConfig& cfg, Rng& rng) {
  switch (cfg.topology) {
    case TopologyKind::kChain:
      return chain_positions(cfg.hops, cfg.chain_spacing);
    case TopologyKind::kCross:
      return cross_positions(cfg.hops);
    case TopologyKind::kRandomField:
      break;
  }
  return field_positions(cfg.topology, cfg.field, rng);
}

Stack build_stack(const ExperimentConfig& cfg, Network& net,
                  const std::vector<Position>& positions,
                  const std::vector<std::size_t>& members) {
  MUZHA_ASSERT(!cfg.flows.empty(), "experiment needs at least one flow");
  MUZHA_ASSERT(cfg.duration >= SimTime::zero(),
               "duration must not be negative");
  // Written so that NaN fails too.
  MUZHA_ASSERT(cfg.uniform_error_rate >= 0.0 && cfg.uniform_error_rate <= 1.0,
               "uniform_error_rate must be in [0, 1]");
  MUZHA_ASSERT(cfg.chain_spacing > Meters(0.0), "chain_spacing must be > 0");
  const bool relays_move = cfg.relay_max_speed != MetersPerSecond(0.0);
  MUZHA_ASSERT(!relays_move ||
                   cfg.relay_max_speed >= RandomWaypointMobility::kMinSpeed,
               "relay_max_speed must be 0 or at least 1 m/s");
  MUZHA_ASSERT(cfg.topology == TopologyKind::kChain ||
                   (cfg.chain_spacing == kChainSpacing && !relays_move),
               "chain_spacing and relay_max_speed apply to a chain only");
  MUZHA_ASSERT(!relays_move || cfg.hops >= 2,
               "relay motion needs an interior relay: hops must be >= 2");
  Stack st;
  st.net = &net;
  // Global node index -> index in `net`; SIZE_MAX for another stack's node.
  std::vector<std::size_t> local_index(positions.size(), SIZE_MAX);
  for (std::size_t li = 0; li < members.size(); ++li) {
    local_index[members[li]] = li;
    net.add_node(positions[members[li]], static_cast<NodeId>(members[li]));
  }

  if (cfg.static_routing) {
    net.use_static_routing();
    install_static_routes(net, members, positions,
                          net.channel().params().rx_range);
  } else {
    net.use_aodv();
  }

  // Router assistance, as the variant table asks for it.
  bool any_drai = false;
  bool any_red_ecn = false;
  for (const FlowSpec& f : cfg.flows) {
    any_drai |= variant_info(f.variant).routers == RouterAssist::kDrai;
    any_red_ecn |= variant_info(f.variant).routers == RouterAssist::kRedEcn;
  }
  if (any_drai) {
    net.enable_muzha_routers(cfg.drai);
  } else if (any_red_ecn) {
    net.enable_red_ecn_routers();
  }

  if (cfg.uniform_error_rate > 0.0) {
    net.channel().set_loss_rate(Probability(cfg.uniform_error_rate));
  }

  // Flows. Ports and flow ids are global indices, so the two halves of a
  // flow split across stacks agree. The reserve keeps each FlowInstance in
  // place once its cwnd tracer is attached.
  st.flows.reserve(cfg.flows.size());
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowSpec& f = cfg.flows[i];
    MUZHA_ASSERT(f.src < positions.size() && f.dst < positions.size(),
                 "flow endpoints out of range");
    MUZHA_ASSERT(f.src != f.dst, "flow endpoints must differ");
    const VariantInfo& variant = variant_info(f.variant);
    TcpConfig tc;
    tc.dst = static_cast<NodeId>(f.dst);
    tc.src_port = static_cast<std::uint16_t>(1000 + i);
    tc.dst_port = static_cast<std::uint16_t>(2000 + i);
    tc.flow = static_cast<FlowId>(i);
    tc.packet_size = Bytes(kSegmentBytes);
    tc.window = f.window;
    FlowInstance& inst = st.flows.emplace_back();
    if (std::size_t src = local_index[f.src]; src != SIZE_MAX) {
      inst.agent = variant.make(net.sim(), net.node(src), tc);
      if (auto* m = dynamic_cast<TcpMuzha*>(inst.agent.get())) {
        m->set_loss_discrimination(cfg.muzha_loss_discrimination);
      }
    }
    if (std::size_t dst = local_index[f.dst]; dst != SIZE_MAX) {
      if (variant.adtcp_sink) {
        inst.sink = std::make_unique<AdtcpSink>(net.sim(), net.node(dst),
                                                tc.dst_port);
      } else {
        inst.sink =
            std::make_unique<TcpSink>(net.sim(), net.node(dst), tc.dst_port);
      }
      inst.sink->start();
      inst.sampler =
          std::make_unique<ThroughputSampler>(kThroughputBin, kPayloadBytes);
      inst.sampler->attach(*inst.sink);
    }
    if (inst.agent) {
      TcpAgent* agent = inst.agent.get();
      net.sim().schedule_at(f.start_time, [agent] { agent->start(); });
      inst.cwnd.attach(*agent);
    }
  }

  // Background CBR load, started by the stack that owns the source.
  st.cbr_apps.resize(cfg.cbr_flows.size());
  for (std::size_t i = 0; i < cfg.cbr_flows.size(); ++i) {
    const CbrFlowSpec& c = cfg.cbr_flows[i];
    MUZHA_ASSERT(c.src < positions.size() && c.dst < positions.size(),
                 "CBR endpoints out of range");
    MUZHA_ASSERT(c.src != c.dst, "CBR endpoints must differ");
    std::size_t src = local_index[c.src];
    if (src == SIZE_MAX) continue;
    CbrApp::Config cc;
    cc.dst = static_cast<NodeId>(c.dst);
    cc.packet_size_bytes = c.packet_size_bytes;
    cc.rate = c.rate;
    cc.start_time = c.start_time;
    st.cbr_apps[i] = std::make_unique<CbrApp>(net.sim(), net.node(src), cc);
    st.cbr_apps[i]->install();
  }

  // Random-waypoint motion, started after the flows and the CBR load: each
  // field node over its district rectangle (the whole field when districts
  // == 1), each interior chain relay over its band.
  auto move = [&](std::size_t li, RandomWaypointMobility::Config mc) {
    st.mobility.push_back(
        std::make_unique<RandomWaypointMobility>(net.sim(), net.node(li), mc));
    st.mobility.back()->start();
  };
  if (cfg.topology == TopologyKind::kRandomField && cfg.field.mobile) {
    st.mobility.reserve(members.size());
    for (std::size_t li = 0; li < members.size(); ++li) {
      Rect r = district_rect(cfg.field, district_of(cfg.field, members[li]));
      move(li, {.min_x = r.x0, .max_x = r.x1, .min_y = r.y0, .max_y = r.y1,
                .max_speed = kFieldMaxSpeed, .pause = kFieldPause,
                .tick = cfg.field.mobility_tick});
    }
  } else if (relays_move) {
    for (std::size_t li = 0; li < members.size(); ++li) {
      const std::size_t i = members[li];
      if (i == 0 || i == positions.size() - 1) continue;  // endpoints stay
      const double slot = cfg.chain_spacing.value() * static_cast<double>(i);
      move(li, {.min_x = slot - kRelayBand, .max_x = slot + kRelayBand,
                .min_y = -kRelayBand, .max_y = kRelayBand,
                .max_speed = cfg.relay_max_speed, .pause = kRelayPause,
                .tick = kRelayTick});
    }
  }
  return st;
}

ExperimentResult collect(const ExperimentConfig& cfg,
                         std::span<Stack* const> stacks) {
  ExperimentResult result;
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowSpec& f = cfg.flows[i];
    const FlowInstance* src = nullptr;
    const FlowInstance* dst = nullptr;
    for (const Stack* st : stacks) {
      if (st->flows[i].agent) src = &st->flows[i];
      if (st->flows[i].sink) dst = &st->flows[i];
    }
    FlowResult r;
    r.variant = f.variant;
    r.delivered = dst->sink->delivered();
    r.duration = Seconds((cfg.duration - f.start_time).to_seconds());
    r.throughput =
        r.duration > Seconds(0.0)
            ? Bits(static_cast<std::int64_t>(r.delivered) * kPayloadBytes * 8) /
                  r.duration
            : BitsPerSecond(0.0);
    r.packets_sent = src->agent->packets_sent();
    r.retransmissions = src->agent->retransmissions();
    r.timeouts = src->agent->timeouts();
    r.cwnd_trace = src->cwnd.series();
    r.throughput_series = dst->sampler->series();
    if (auto* m = dynamic_cast<const TcpMuzha*>(src->agent.get())) {
      r.marked_loss_events = m->marked_loss_events();
      r.unmarked_loss_events = m->unmarked_loss_events();
    }
    result.flows.push_back(std::move(r));
  }
  // Integer sums, so the order of stacks and nodes does not matter.
  for (Stack* st : stacks) {
    Network& net = *st->net;
    for (std::size_t li = 0; li < net.size(); ++li) {
      result.ifq_drops += net.node(li).count(TraceEventKind::kDropIfq);
      result.mac_retry_drops += net.node(li).device().mac().drops_retry_limit();
      result.phy_collisions += net.node(li).device().phy().collisions();
    }
    result.channel_error_losses += net.channel().frames_corrupted_by_error();
    for (const auto& app : st->cbr_apps) {
      if (app) result.cbr_packets_sent += app->packets_sent();
    }
  }
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  if (cfg.shards != 1) return run_sharded_experiment(cfg);
  // One core, on this thread. Placement draws from the network's own
  // simulation RNG, as the topology builders do.
  Network net(cfg.seed, cfg.brute_force_channel ? ChannelMode::kBruteForce
                                                 : ChannelMode::kSpatialIndex);
  std::vector<Position> positions = node_positions(cfg, net.sim().rng());
  std::vector<std::size_t> all(positions.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Stack stack = build_stack(cfg, net, positions, all);
  net.run_until(cfg.duration);
  Stack* const stacks[] = {&stack};
  return collect(cfg, stacks);
}

}  // namespace muzha
