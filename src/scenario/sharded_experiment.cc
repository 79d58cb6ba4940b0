#include "scenario/sharded_experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/node.h"
#include "phy/channel.h"
#include "phy/phy_params.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "scenario/batch_runner.h"
#include "scenario/city.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "scenario/stack.h"
#include "sim/assert.h"
#include "sim/rng.h"
#include "sim/shard_exec.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

double shard_box_gap(const ShardBox& a, const ShardBox& b) {
  double dx = std::max({0.0, b.x0 - a.x1, a.x0 - b.x1});
  double dy = std::max({0.0, b.y0 - a.y1, a.y0 - b.y1});
  return std::sqrt(dx * dx + dy * dy);
}

double shard_box_distance(Position p, const ShardBox& box) {
  double dx = std::max({0.0, box.x0 - p.x, p.x - box.x1});
  double dy = std::max({0.0, box.y0 - p.y, p.y - box.y1});
  return std::sqrt(dx * dx + dy * dy);
}

std::vector<double> shard_cuts(std::vector<double> xs, int shards,
                               Meters cell_size) {
  MUZHA_ASSERT(shards >= 1, "need at least one shard");
  MUZHA_ASSERT(xs.size() >= static_cast<std::size_t>(shards),
               "fewer nodes than shards");
  std::sort(xs.begin(), xs.end());
  // Rank inter-node gaps widest first; ties break toward the lower x so the
  // choice is deterministic.
  struct Gap {
    double width;
    double lo, hi;
  };
  std::vector<Gap> gaps;
  gaps.reserve(xs.size() - 1);
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    gaps.push_back(Gap{xs[i + 1] - xs[i], xs[i], xs[i + 1]});
  }
  std::sort(gaps.begin(), gaps.end(), [](const Gap& a, const Gap& b) {
    if (a.width != b.width) return a.width > b.width;
    return a.lo < b.lo;
  });
  std::vector<double> cuts;
  cuts.reserve(static_cast<std::size_t>(shards) - 1);
  for (int c = 0; c < shards - 1; ++c) {
    const Gap& g = gaps[static_cast<std::size_t>(c)];
    double mid = 0.5 * (g.lo + g.hi);
    // Align with a spatial-grid cell boundary when one falls strictly
    // inside the gap; cell-aligned cuts keep each shard's grid cells whole.
    double snapped = std::round(mid / cell_size.value()) * cell_size.value();
    cuts.push_back(snapped > g.lo && snapped < g.hi ? snapped : mid);
  }
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

SimTime conservative_lookahead(const std::vector<ShardBox>& boxes,
                               Meters cs_range, MetersPerSecond propagation,
                               SimTime max_epoch) {
  SimTime lookahead = max_epoch;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      double gap = shard_box_gap(boxes[i], boxes[j]);
      // Pairs farther apart than carrier-sense range never exchange frames
      // (the outbox filter drops them), so they do not constrain the window.
      if (gap > cs_range.value()) continue;
      // to_sim_time rounds exactly like the per-frame propagation delay in
      // Channel::deliver and is monotone in distance, so every cross-shard
      // frame between this pair arrives >= this many ns after transmission.
      SimTime pair_l = to_sim_time(Meters(gap) / propagation);
      if (pair_l < SimTime::from_ns(1)) pair_l = SimTime::from_ns(1);
      if (pair_l < lookahead) lookahead = pair_l;
    }
  }
  return lookahead;
}

namespace {

// Upper bound on the lookahead window; also the window when every shard
// pair is farther apart than carrier-sense range (fully decoupled).
constexpr SimTime kShardMaxEpoch = SimTime::from_ms(10);

// BoundarySink recording every local transmission that could reach foreign
// territory. Runs inside Channel::transmit on the shard's worker thread;
// drained by the orchestrator at the barrier.
class ShardOutbox final : public BoundarySink {
 public:
  void init(Simulator* sim, std::uint32_t shard, Meters cs_range,
            const std::vector<ShardBox>* boxes) {
    sim_ = sim;
    shard_ = shard;
    cs_range_ = cs_range;
    boxes_ = boxes;
  }

  void on_transmit(Position src_pos, const Packet& pkt,
                   SimTime duration) override {
    std::uint64_t mask = 0;
    for (std::size_t t = 0; t < boxes_->size(); ++t) {
      if (t == shard_) continue;
      if (shard_box_distance(src_pos, (*boxes_)[t]) <= cs_range_.value()) {
        mask |= std::uint64_t{1} << t;
      }
    }
    if (mask == 0) return;
    BoundaryMessage m;
    m.tx_time = sim_->now();
    m.src_shard = shard_;
    m.seq = next_seq_++;
    m.src_pos = src_pos;
    m.duration = duration;
    m.dst_mask = mask;
    m.pkt = pkt;
    msgs_.push_back(std::move(m));
  }

  std::vector<BoundaryMessage>& msgs() { return msgs_; }

 private:
  Simulator* sim_ = nullptr;
  std::uint32_t shard_ = 0;
  Meters cs_range_ = Meters(0.0);
  const std::vector<ShardBox>* boxes_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::vector<BoundaryMessage> msgs_;
};

// Everything one shard owns. Built, run and DESTROYED on the shard's sticky
// worker thread: nodes, agents and apps hold arena packets, and the
// thread-local arena forbids cross-thread release.
struct ShardState {
  std::unique_ptr<Network> net;
  Stack stack;
  ShardOutbox outbox;
  std::vector<BoundaryMessage> inbox;
};

// Disjoint per-shard RNG streams derived from the experiment seed.
std::uint64_t shard_seed(const ExperimentConfig& cfg, int shard) {
  return splitmix64(splitmix64(cfg.seed) ^
                    (0x5AD5AD00ull + static_cast<std::uint64_t>(shard)));
}

}  // namespace

ExperimentResult run_sharded_experiment(const ExperimentConfig& cfg,
                                        const ShardDebugOptions& dbg) {
  const int K = cfg.shards;
  MUZHA_ASSERT(K >= 2, "run_sharded_experiment needs shards >= 2");
  MUZHA_ASSERT(K <= 64, "dst_mask holds at most 64 shards");
  MUZHA_ASSERT(is_field_topology(cfg.topology),
               "shards > 1 needs a field topology (kRandomField or "
               "kManhattanGrid)");
  if (cfg.field.mobile) {
    MUZHA_ASSERT(cfg.field.districts >= K,
                 "a mobile field needs at least one district per shard so "
                 "node->shard ownership stays static");
  }
  const PhyParams phy{};  // run_experiment builds with default radio params

  // --- Partition: draw the global placement, assign nodes to shards, and
  // bound each shard's territory. All static; no network exists yet.
  Rng placement_rng(cfg.seed);
  const std::vector<Position> gpos = node_positions(cfg, placement_rng);
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(K));
  std::vector<ShardBox> boxes(static_cast<std::size_t>(K));
  auto assign = [&](std::size_t i, int s, ShardBox extent) {
    std::vector<std::size_t>& m = members[static_cast<std::size_t>(s)];
    ShardBox& b = boxes[static_cast<std::size_t>(s)];
    if (m.empty()) {
      b = extent;
    } else {
      b.x0 = std::min(b.x0, extent.x0);
      b.x1 = std::max(b.x1, extent.x1);
      b.y0 = std::min(b.y0, extent.y0);
      b.y1 = std::max(b.y1, extent.y1);
    }
    m.push_back(i);
  };
  if (cfg.field.mobile) {
    // Districts are x-ordered strips; deal them out contiguously so each
    // shard's territory is one run of strips. A node's motion never leaves
    // its district rectangle, so the territory is exact.
    const int d_total = cfg.field.districts;
    for (std::size_t i = 0; i < gpos.size(); ++i) {
      int d = district_of(cfg.field, i);
      Rect r = district_rect(cfg.field, d);
      assign(i, d * K / d_total, ShardBox{r.x0, r.x1, r.y0, r.y1});
    }
  } else {
    // Static field: cut at the widest x gaps; territory is the bounding box
    // of the member positions.
    std::vector<double> xs;
    xs.reserve(gpos.size());
    for (const Position& p : gpos) xs.push_back(p.x);
    std::vector<double> cuts = shard_cuts(xs, K, phy.cs_range);
    for (std::size_t i = 0; i < gpos.size(); ++i) {
      int s = 0;
      for (double c : cuts) {
        if (gpos[i].x >= c) ++s;
      }
      assign(i, s, ShardBox{gpos[i].x, gpos[i].x, gpos[i].y, gpos[i].y});
    }
  }
  for (const std::vector<std::size_t>& m : members) {
    MUZHA_ASSERT(!m.empty(), "a shard ended up with no nodes");
  }

  SimTime lookahead =
      dbg.force_lookahead > SimTime::zero()
          ? dbg.force_lookahead
          : conservative_lookahead(boxes, phy.cs_range, phy.propagation,
                                   kShardMaxEpoch);
  MUZHA_ASSERT(lookahead > SimTime::zero(), "lookahead must be positive");

  // --- Per-shard build, on each shard's sticky owner thread. Node ids are
  // GLOBAL indices, so frames crossing shards stay addressable.
  const int jobs = cfg.shard_jobs > 0 ? cfg.shard_jobs : K;
  ShardExecutor exec(K, jobs);
  std::vector<std::unique_ptr<ShardState>> states(
      static_cast<std::size_t>(K));

  exec.run_phase([&](int s) {
    auto st = std::make_unique<ShardState>();
    st->net = std::make_unique<Network>(
        shard_seed(cfg, s), phy, NodeConfig{},
        cfg.brute_force_channel ? ChannelMode::kBruteForce
                                : ChannelMode::kSpatialIndex);
    st->stack = build_stack(cfg, *st->net, gpos,
                            members[static_cast<std::size_t>(s)]);
    st->outbox.init(&st->net->sim(), static_cast<std::uint32_t>(s),
                    phy.cs_range, &boxes);
    st->net->channel().set_boundary_sink(&st->outbox);
    states[static_cast<std::size_t>(s)] = std::move(st);
  });

  // --- Window loop. Orchestrator and workers alternate: workers execute
  // one window per phase; between phases the orchestrator (holding the only
  // reference to every outbox/inbox) routes boundary frames and picks the
  // next window. Inboxes are injected in (tx_time, src_shard, seq) order —
  // deterministic regardless of worker count or OS scheduling.
  const SimTime one_ns = SimTime::from_ns(1);
  SimTime window_start = SimTime::zero();
  for (;;) {
    bool pending_inbox = false;
    for (const auto& st : states) {
      if (!st->inbox.empty()) pending_inbox = true;
    }
    if (window_start >= cfg.duration && !pending_inbox) break;
    const SimTime window_end = window_start + lookahead;
    const SimTime target = std::min(window_end - one_ns, cfg.duration);
    exec.run_phase([&states, target](int s) {
      ShardState& st = *states[static_cast<std::size_t>(s)];
      for (const BoundaryMessage& m : st.inbox) {
        st.net->channel().deliver_remote(m.src_pos, m.pkt, m.duration,
                                         m.tx_time);
      }
      st.inbox.clear();
      st.net->run_until(target);
    });
    bool any_boundary = false;
    for (auto& st : states) {
      for (BoundaryMessage& m : st->outbox.msgs()) {
        for (int t = 0; t < K; ++t) {
          if ((m.dst_mask >> t) & 1) {
            states[static_cast<std::size_t>(t)]->inbox.push_back(m);
            any_boundary = true;
          }
        }
      }
      st->outbox.msgs().clear();
    }
    if (any_boundary) {
      for (auto& st : states) {
        std::sort(st->inbox.begin(), st->inbox.end(), boundary_message_order);
      }
      window_start = window_end;
    } else {
      // Quiet barrier: no frame is in flight between shards, so the next
      // window may open at the earliest pending event anywhere instead of
      // grinding through empty lookahead epochs.
      SimTime min_next = SimTime::max();
      for (const auto& st : states) {
        min_next = std::min(min_next, st->net->sim().next_event_time());
      }
      window_start = std::max(window_end, std::min(min_next, cfg.duration));
    }
  }
  // run_until is inclusive of its target, so a one-core run executes events
  // scheduled at exactly cfg.duration. The loop above may stop short
  // of that (a quiet barrier can jump window_start straight to the
  // horizon); one final inclusive run makes the schedules match. A frame
  // transmitted at the horizon arrives strictly later everywhere and is
  // never executed, so no boundary exchange is needed.
  exec.run_phase([&states, &cfg](int s) {
    states[static_cast<std::size_t>(s)]->net->run_until(cfg.duration);
  });

  // --- Collect. Pure reads; the workers are quiescent between phases, so
  // the orchestrator may touch everything except packet memory.
  std::vector<Stack*> stacks;
  stacks.reserve(states.size());
  for (auto& st : states) stacks.push_back(&st->stack);
  ExperimentResult result = collect(cfg, stacks);

  // --- Teardown, back on the owner threads: nodes, agents and apps hold
  // arena packets, and the thread-local arena insists on same-thread
  // release. The executor's sticky mapping guarantees each shard dies where
  // it lived.
  exec.run_phase([&states](int s) {
    ShardState& st = *states[static_cast<std::size_t>(s)];
    st.net->channel().set_boundary_sink(nullptr);
    states[static_cast<std::size_t>(s)].reset();
  });
  return result;
}

}  // namespace muzha
