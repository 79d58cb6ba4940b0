#include "layers.h"

#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/bandwidth_estimator.h"
#include "net/node.h"
#include "phy/channel.h"
#include "phy/wireless_phy.h"
#include "pkt/packet.h"
#include "routing/aodv.h"
#include "routing/static_routing.h"
#include "scenario/city.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/shard_exec.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/tcp_agent.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

using namespace muzha;

namespace {

constexpr double kPi = 3.141592653589793;

struct Timed {
  double ns = 0.0;   // wall time of the timed part of one batch
  double ops = 0.0;  // operations it completed
};

// Runs `batch` repeatedly for `budget_s` (at least five batches) and returns
// the median cost per op. Each batch is a span under a "bench:<name>" span.
double measure(Tracer& tr, int parent, const std::string& name,
               double budget_s, const std::function<Timed()>& batch) {
  ScopedSpan bench(tr, "bench:" + name, parent);
  std::vector<double> per_op;
  double ops = 0.0;
  std::int64_t start = wall_ns();
  while (per_op.size() < 5 ||
         static_cast<double>(wall_ns() - start) / 1e9 < budget_s) {
    ScopedSpan span(tr, "batch:" + name, bench.id());
    Timed t = batch();
    tr.count(span.id(), "ops", t.ops);
    if (t.ops > 0) per_op.push_back(t.ns / t.ops);
    ops += t.ops;
  }
  tr.count(bench.id(), "ops", ops);
  tr.count(bench.id(), "batches", static_cast<double>(per_op.size()));
  return median(per_op);
}

Timed timed(const std::function<double()>& body) {
  std::int64_t t0 = wall_ns();
  double ops = body();
  return {static_cast<double>(wall_ns() - t0), ops};
}

// --- Scheduler: schedule_at + fire at a fixed pending depth ("hold") -------

struct HoldCtx {
  Scheduler sched;
  std::uint64_t x = 0;
};

struct HoldEvent {
  HoldCtx* c;
  void operator()() const {
    c->x = c->x * 6364136223846793005ull + 1442695040888963407ull;
    auto delay = static_cast<std::int64_t>((c->x >> 33) % 1'000'000) + 1;
    c->sched.schedule_in(SimTime::from_ns(delay), HoldEvent{c});
  }
};

double bench_event(Tracer& tr, int parent, const LayerConfig& cfg) {
  HoldCtx ctx;
  ctx.x = cfg.seed;
  for (int i = 0; i < cfg.event_depth; ++i) HoldEvent{&ctx}();
  return measure(tr, parent, "sim.event_ns", cfg.budget_s, [&] {
    return timed([&] {
      constexpr int kSteps = 50'000;
      for (int i = 0; i < kSteps; ++i) ctx.sched.step();
      return static_cast<double>(kSteps);
    });
  });
}

// --- Timer restart churn ----------------------------------------------------

double bench_timer(Tracer& tr, int parent, const LayerConfig& cfg) {
  Simulator sim(cfg.seed);
  std::uint64_t fired = 0;
  Timer timer(sim, [&fired] { ++fired; });
  double ns = measure(tr, parent, "sim.timer_restart_ns", cfg.budget_s, [&] {
    return timed([&] {
      constexpr int kRestarts = 50'000;
      for (int i = 0; i < kRestarts; ++i) {
        timer.schedule_in(SimTime::from_us(10));
        if (i % 64 == 63) sim.run_until(sim.now() + SimTime::from_us(20));
      }
      return static_cast<double>(kRestarts);
    });
  });
  timer.cancel();
  std::printf("  sim.timer_restart_ns: %llu expiries\n",
              static_cast<unsigned long long>(fired));
  return ns;
}

// --- Shard executor: an empty phase round trip, K = 4 -----------------------

double bench_shard_phase(Tracer& tr, int parent, const LayerConfig& cfg) {
  ShardExecutor ex(4, 4);
  std::vector<std::uint64_t> hits(4, 0);
  std::function<void(int)> fn = [&hits](int s) {
    ++hits[static_cast<std::size_t>(s)];
  };
  ex.run_phase(fn);
  return measure(tr, parent, "sim.shard_phase_us", cfg.budget_s, [&] {
    return timed([&] {
      constexpr int kPhases = 1000;
      for (int i = 0; i < kPhases; ++i) ex.run_phase(fn);
      return static_cast<double>(kPhases);
    });
  }) / 1e3;
}

// --- Packet clone (warm arena) ----------------------------------------------

double bench_clone(Tracer& tr, int parent, const LayerConfig& cfg) {
  Packet proto;
  proto.size_bytes = 1500;
  TcpHeader h;
  h.seqno = 7;
  proto.l4 = h;
  { PacketPtr warm = clone_packet(proto); }
  std::uint64_t sink = 0;
  double ns = measure(tr, parent, "pkt.clone_ns", cfg.budget_s, [&] {
    return timed([&] {
      constexpr int kClones = 200'000;
      for (int i = 0; i < kClones; ++i) {
        PacketPtr p = clone_packet(proto);
        sink += p->size_bytes;
      }
      return static_cast<double>(kClones);
    });
  });
  if (sink == 0) std::printf("  pkt.clone_ns: empty clones\n");
  return ns;
}

// --- Channel: transmit + drain on a workload's field --------------------------

Packet broadcast_packet() {
  Packet pkt;
  pkt.size_bytes = 1000;
  pkt.mac.type = MacFrameType::kData;
  pkt.mac.dst = kBroadcastId;
  pkt.ip.dst = kBroadcastId;  // decoding receivers count and drop it
  return pkt;
}

double bench_transmit(Tracer& tr, int parent, const LayerConfig& cfg,
                      const char* name, Network& net) {
  Packet pkt = broadcast_packet();
  std::size_t sender = 0;
  return measure(tr, parent, name, cfg.budget_s, [&] {
    return timed([&] {
      constexpr int kTx = 2000;
      for (int i = 0; i < kTx; ++i) {
        net.channel().transmit(net.node(sender).device().phy(), pkt,
                               SimTime::from_us(500));
        net.sim().run();
        sender = (sender + 1) % net.size();
      }
      return static_cast<double>(kTx);
    });
  });
}

// --- PHY: random-waypoint set_position steps on the city field ---------------

double bench_set_position(Tracer& tr, int parent, const LayerConfig& cfg,
                          Network& net, const FieldConfig& field) {
  Rng rng(cfg.seed);
  std::size_t n = net.size();
  std::vector<Position> pos(n);
  std::vector<double> vx(n), vy(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = net.node(i).device().phy().position();
    double speed = rng.uniform(1.0, 10.0), dir = rng.uniform(0.0, 2 * kPi);
    vx[i] = speed * std::cos(dir);
    vy[i] = speed * std::sin(dir);
  }
  const double dt = field.mobility_tick.to_seconds();
  return measure(tr, parent, "phy.set_position_ns", cfg.budget_s, [&] {
    // One mobility tick of every node; the geometry is not timed.
    for (std::size_t i = 0; i < n; ++i) {
      Rect r = district_rect(field, district_of(field, i));
      pos[i].x += vx[i] * dt;
      pos[i].y += vy[i] * dt;
      if (pos[i].x < r.x0 || pos[i].x > r.x1) {
        vx[i] = -vx[i];
        pos[i].x = std::fmin(std::fmax(pos[i].x, r.x0), r.x1);
      }
      if (pos[i].y < r.y0 || pos[i].y > r.y1) {
        vy[i] = -vy[i];
        pos[i].y = std::fmin(std::fmax(pos[i].y, r.y0), r.y1);
      }
    }
    return timed([&] {
      for (std::size_t i = 0; i < n; ++i) {
        net.node(i).device().phy().set_position(pos[i]);
      }
      return static_cast<double>(n);
    });
  });
}

// --- MAC: acknowledged DATA frames with N saturated stations ----------------

double bench_mac(Tracer& tr, int parent, const LayerConfig& cfg,
                 int stations, const char* name, double* retries_per_frame) {
  Network net(cfg.seed);
  Node& sink = net.add_node({0.0, 0.0});
  std::vector<Node*> senders;
  for (int k = 0; k < stations; ++k) {
    double a = 2 * kPi * k / stations;
    senders.push_back(&net.add_node({100.0 * std::cos(a), 100.0 * std::sin(a)}));
  }
  constexpr int kQueued = 20;  // per station per batch, below the IFQ cap
  std::uint64_t retries0 = 0, data0 = 0;
  auto totals = [&](std::uint64_t& retries, std::uint64_t& data,
                    std::uint64_t& drops) {
    retries = data = drops = 0;
    for (Node* s : senders) {
      retries += s->device().mac().retries();
      data += s->device().mac().data_frames_sent();
      drops += s->device().mac().drops_retry_limit();
    }
  };
  std::uint64_t drops0 = 0;
  totals(retries0, data0, drops0);
  double us = measure(tr, parent, name, cfg.budget_s, [&] {
    std::uint64_t r0, d0, x0, r1, d1, x1;
    totals(r0, d0, x0);
    Timed t = timed([&] {
      for (int q = 0; q < kQueued; ++q) {
        for (Node* s : senders) {
          s->device().send(s->new_packet(sink.id(), IpProto::kNone, 1460),
                           sink.id());
        }
      }
      net.sim().run();
      return 0.0;
    });
    totals(r1, d1, x1);
    t.ops = static_cast<double>(kQueued * stations) -
            static_cast<double>(x1 - x0);
    return t;
  }) / 1e3;
  std::uint64_t retries, data, drops;
  totals(retries, data, drops);
  retries -= retries0;
  data -= data0;
  drops -= drops0;
  *retries_per_frame =
      data > 0 ? static_cast<double>(retries) / static_cast<double>(data) : 0;
  std::printf("  %s: %llu data frames sent, %llu retries, %llu retry drops\n",
              name, static_cast<unsigned long long>(data),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(drops));
  return us;
}

// --- Node::device_send into the IFQ, without and with a DRAI source ---------

void bench_forward_and_stamp(Tracer& tr, int parent, const LayerConfig& cfg,
                             double* forward_ns, double* stamped_ns) {
  Network net(cfg.seed);
  build_chain(net, 1);
  Node& node = net.node(0);
  NodeId next = net.node(1).id();
  BandwidthEstimator est(net.sim(), node.device());
  est.start();
  auto tcp_packet = [&] {
    PacketPtr p = node.new_packet(next, IpProto::kTcp, 1500);
    p->l4 = TcpHeader{};
    return p;
  };
  // The first packet occupies the MAC (the clock never runs), so every
  // later one lands in the IFQ.
  node.device_send(tcp_packet(), next);
  constexpr int kPackets = 40;  // below the 50-packet IFQ
  std::vector<PacketPtr> batch;
  auto run_batch = [&](DraiSource* src) {
    node.set_drai_source(src);
    batch.clear();
    for (int i = 0; i < kPackets; ++i) batch.push_back(tcp_packet());
    Timed t = timed([&] {
      for (PacketPtr& p : batch) node.device_send(std::move(p), next);
      return static_cast<double>(kPackets);
    });
    while (!node.device().queue().empty()) node.device().queue().dequeue();
    return t;
  };
  // Alternate the two so drift hits both alike; each op is tens of ns, so
  // a batch is repeated to rise well above the clock's resolution.
  auto repeated = [&](DraiSource* src) {
    Timed sum;
    for (int r = 0; r < 50; ++r) {
      Timed t = run_batch(src);
      sum.ns += t.ns;
      sum.ops += t.ops;
    }
    return sum;
  };
  std::vector<double> fwd, stamped;
  ScopedSpan bench(tr, "bench:net.forward_ns+core.stamp_ns", parent);
  std::int64_t start = wall_ns();
  while (fwd.size() < 5 ||
         static_cast<double>(wall_ns() - start) / 1e9 < cfg.budget_s) {
    {
      ScopedSpan span(tr, "batch:net.forward_ns", bench.id());
      Timed t = repeated(nullptr);
      tr.count(span.id(), "ops", t.ops);
      fwd.push_back(t.ns / t.ops);
    }
    {
      ScopedSpan span(tr, "batch:core.stamp_ns", bench.id());
      Timed t = repeated(&est);
      tr.count(span.id(), "ops", t.ops);
      stamped.push_back(t.ns / t.ops);
    }
  }
  node.set_drai_source(nullptr);
  *forward_ns = median(fwd);
  *stamped_ns = median(stamped);
}

// --- Estimator ticks on idle devices ----------------------------------------

double bench_estimator(Tracer& tr, int parent, const LayerConfig& cfg,
                       const FieldConfig& field) {
  Network net(cfg.seed);
  FieldConfig still = field;
  still.mobile = false;
  build_random_field(net, still);
  DraiConfig drai;
  net.enable_muzha_routers(drai);
  const SimTime step = SimTime::from_ms(500);
  const double ticks = static_cast<double>(net.size()) *
                       static_cast<double>(step / drai.sample_interval);
  return measure(tr, parent, "core.estimator_tick_ns", cfg.budget_s, [&] {
    return timed([&] {
      net.run_until(net.sim().now() + step);
      return ticks;
    });
  });
}

// --- AODV discovery across one 250-node district -----------------------------

// Picks a source in the largest connected component (decode-range links)
// and the destination farthest from it in hops.
bool pick_far_pair(Network& net, std::size_t rotate, std::size_t& src,
                   std::size_t& dst, int& hops) {
  std::size_t n = net.size();
  double range = net.channel().params().rx_range.value();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (distance(net.node(i).device().phy().position(),
                   net.node(j).device().phy().position())
              .value() <= range) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
  }
  auto bfs = [&](std::size_t from, std::vector<int>& depth) {
    depth.assign(n, -1);
    std::deque<std::size_t> q{from};
    depth[from] = 0;
    std::size_t far = from;
    while (!q.empty()) {
      std::size_t u = q.front();
      q.pop_front();
      if (depth[u] > depth[far]) far = u;
      for (std::size_t v : adj[u]) {
        if (depth[v] < 0) {
          depth[v] = depth[u] + 1;
          q.push_back(v);
        }
      }
    }
    return far;
  };
  std::vector<int> depth, comp(n, -1);
  std::size_t best_root = 0, best_size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (comp[i] >= 0) continue;
    bfs(i, depth);
    std::size_t size = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (depth[j] >= 0) {
        comp[j] = static_cast<int>(i);
        ++size;
      }
    }
    if (size > best_size) {
      best_size = size;
      best_root = i;
    }
  }
  if (best_size < 2) return false;
  std::vector<std::size_t> members;
  for (std::size_t j = 0; j < n; ++j) {
    if (comp[j] == static_cast<int>(best_root)) members.push_back(j);
  }
  src = members[rotate % members.size()];
  dst = bfs(src, depth);
  hops = depth[dst];
  return dst != src;
}

void bench_discovery(Tracer& tr, int parent, const LayerConfig& cfg,
                     double* ms_per_discovery, double* ctrl_per_discovery) {
  ScopedSpan bench(tr, "bench:routing.discovery_ms", parent);
  std::vector<double> ms, ctrl;
  double hop_sum = 0.0;
  int misses = 0;
  std::int64_t start = wall_ns();
  for (std::uint64_t k = 0;
       ms.size() < 5 ||
       static_cast<double>(wall_ns() - start) / 1e9 < cfg.budget_s;
       ++k) {
    Network net(mix_seed(cfg.seed, 1000 + k));
    FieldConfig district;
    district.nodes = 250;
    district.width = Meters(2500.0);
    district.height = Meters(4000.0);
    district.mobile = false;
    build_random_field(net, district);
    net.use_aodv();
    std::size_t src = 0, dst = 0;
    int hops = 0;
    if (!pick_far_pair(net, k * 37, src, dst, hops)) continue;
    auto ctrl_total = [&] {
      double c = 0.0;
      for (std::size_t i = 0; i < net.size(); ++i) {
        auto& aodv = static_cast<Aodv&>(net.node(i).routing());
        c += static_cast<double>(aodv.rreqs_originated() + aodv.rreps_sent());
      }
      return c;
    };
    Node& from = net.node(src);
    NodeId to = net.node(dst).id();
    auto& aodv = static_cast<Aodv&>(from.routing());
    ScopedSpan span(tr, "batch:routing.discovery_ms", bench.id());
    std::int64_t t0 = wall_ns();
    PacketPtr p = from.new_packet(to, IpProto::kTcp, 40);
    p->l4 = TcpHeader{};
    from.send(std::move(p));
    while (!aodv.has_valid_route(to) &&
           net.sim().now() < SimTime::from_seconds(5.0)) {
      net.run_until(net.sim().now() + SimTime::from_ms(1));
    }
    double wall_ms = static_cast<double>(wall_ns() - t0) / 1e6;
    tr.count(span.id(), "hops", hops);
    if (!aodv.has_valid_route(to)) {
      ++misses;
      continue;
    }
    ms.push_back(wall_ms);
    ctrl.push_back(ctrl_total());
    hop_sum += hops;
  }
  *ms_per_discovery = median(ms);
  *ctrl_per_discovery = median(ctrl);
  std::printf("  routing.discovery_ms: %zu discoveries, mean %.1f hops, "
              "%d without a route in 5 s\n",
              ms.size(), hop_sum / static_cast<double>(ms.size()), misses);
}

// --- TCP: Agent::receive of a new cumulative ACK ----------------------------

double bench_ack(Tracer& tr, int parent, const LayerConfig& cfg,
                 TcpVariant variant, const char* name) {
  Simulator sim(cfg.seed);
  Channel channel(sim, PhyParams{});
  Node src(sim, channel, 0, Position{0, 0});
  Node dst(sim, channel, 1, Position{200, 0});
  auto rs = std::make_unique<StaticRouting>(src);
  rs->add_route(1, 1);
  src.set_routing(std::move(rs));
  auto rd = std::make_unique<StaticRouting>(dst);
  rd->add_route(0, 0);
  dst.set_routing(std::move(rd));
  TcpConfig tc;
  tc.dst = 1;
  tc.src_port = 1000;
  tc.dst_port = 2000;
  tc.window = 32;
  tc.packet_size = Bytes(kSegmentBytes);
  std::unique_ptr<TcpAgent> agent = make_tcp_agent(variant, sim, src, tc);
  agent->start();
  std::vector<PacketPtr> acks;
  return measure(tr, parent, name, cfg.budget_s, [&] {
    Timed sum;
    // Each round acks every outstanding segment one at a time; the sender
    // answers each with its next segment(s), which the IFQ absorbs and the
    // untimed drain below empties.
    for (int round = 0; round < 50; ++round) {
      std::int64_t first = agent->highest_ack() + 1;
      std::int64_t last = agent->next_seq() - 1;
      acks.clear();
      for (std::int64_t a = first; a <= last; ++a) {
        PacketPtr p = dst.new_packet(0, IpProto::kTcp, 40);
        TcpHeader h;
        h.is_ack = true;
        h.seqno = a;
        h.src_port = 2000;
        h.dst_port = 1000;
        p->l4 = h;
        acks.push_back(std::move(p));
      }
      Timed t = timed([&] {
        for (PacketPtr& p : acks) agent->receive(std::move(p));
        return static_cast<double>(acks.size());
      });
      sum.ns += t.ns;
      sum.ops += t.ops;
      while (!src.device().queue().empty()) src.device().queue().dequeue();
    }
    return sum;
  });
}

}  // namespace

std::vector<Metric> run_layer_benches(const LayerConfig& cfg, Tracer& tr,
                                      int parent) {
  std::vector<Metric> out;
  auto add = [&](const char* name, const char* unit, double v) {
    out.push_back({name, unit, v});
  };
  add("sim.event_ns", "ns", bench_event(tr, parent, cfg));
  add("sim.timer_restart_ns", "ns", bench_timer(tr, parent, cfg));
  add("sim.shard_phase_us", "us", bench_shard_phase(tr, parent, cfg));
  add("pkt.clone_ns", "ns", bench_clone(tr, parent, cfg));

  ExperimentConfig city = city_config(1.0, cfg.seed, cfg.seed, 1);
  {
    Network field(cfg.seed);
    build_random_field(field, city.field);
    add("phy.transmit_ns.city", "ns",
        bench_transmit(tr, parent, cfg, "phy.transmit_ns.city", field));
    add("phy.set_position_ns", "ns",
        bench_set_position(tr, parent, cfg, field, city.field));
  }
  {
    Network chain(cfg.seed);
    build_chain(chain, 8);
    add("phy.transmit_ns.chain", "ns",
        bench_transmit(tr, parent, cfg, "phy.transmit_ns.chain", chain));
  }
  double retries_n1 = 0.0, retries_n8 = 0.0;
  add("mac.frame_us.n1", "us",
      bench_mac(tr, parent, cfg, 1, "mac.frame_us.n1", &retries_n1));
  add("mac.frame_us.n8", "us",
      bench_mac(tr, parent, cfg, 8, "mac.frame_us.n8", &retries_n8));
  add("mac.retries_per_frame", "ratio", retries_n8);

  double forward = 0.0, stamped = 0.0;
  bench_forward_and_stamp(tr, parent, cfg, &forward, &stamped);
  add("net.forward_ns", "ns", forward);
  add("core.stamp_ns", "ns", stamped - forward);
  std::printf("  core.stamp_ns: device_send %.2f ns with an estimator, "
              "%.2f ns without\n",
              stamped, forward);
  add("core.estimator_tick_ns", "ns",
      bench_estimator(tr, parent, cfg, city.field));

  double disc_ms = 0.0, disc_ctrl = 0.0;
  bench_discovery(tr, parent, cfg, &disc_ms, &disc_ctrl);
  add("routing.discovery_ms", "ms", disc_ms);
  add("routing.ctrl_per_discovery", "count", disc_ctrl);

  add("tcp.ack_ns.muzha", "ns",
      bench_ack(tr, parent, cfg, TcpVariant::kMuzha, "tcp.ack_ns.muzha"));
  add("tcp.ack_ns.newreno", "ns",
      bench_ack(tr, parent, cfg, TcpVariant::kNewReno, "tcp.ack_ns.newreno"));
  return out;
}

}  // namespace perfbench
