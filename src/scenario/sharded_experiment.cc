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

double rect_gap(const Rect& a, const Rect& b) {
  double dx = std::max({0.0, b.x0 - a.x1, a.x0 - b.x1});
  double dy = std::max({0.0, b.y0 - a.y1, a.y0 - b.y1});
  return std::sqrt(dx * dx + dy * dy);
}

double rect_distance(Position p, const Rect& r) {
  double dx = std::max({0.0, r.x0 - p.x, p.x - r.x1});
  double dy = std::max({0.0, r.y0 - p.y, p.y - r.y1});
  return std::sqrt(dx * dx + dy * dy);
}

SimTime conservative_lookahead(const std::vector<Rect>& territories,
                               Meters cs_range, MetersPerSecond propagation) {
  SimTime lookahead = SimTime::max();
  for (std::size_t i = 0; i < territories.size(); ++i) {
    for (std::size_t j = i + 1; j < territories.size(); ++j) {
      double gap = rect_gap(territories[i], territories[j]);
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

// BoundarySink recording every local transmission that could reach foreign
// territory. Runs inside Channel::transmit on the shard's worker thread;
// drained by the orchestrator at the barrier.
class ShardOutbox final : public BoundarySink {
 public:
  void init(Simulator* sim, std::uint32_t shard, Meters cs_range,
            const std::vector<Rect>* territories) {
    sim_ = sim;
    shard_ = shard;
    cs_range_ = cs_range;
    territories_ = territories;
  }

  void on_transmit(Position src_pos, const Packet& pkt,
                   SimTime duration) override {
    std::uint64_t mask = 0;
    for (std::size_t t = 0; t < territories_->size(); ++t) {
      if (t == shard_) continue;
      if (rect_distance(src_pos, (*territories_)[t]) <= cs_range_.value()) {
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
  const std::vector<Rect>* territories_ = nullptr;
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
  MUZHA_ASSERT(cfg.field.districts >= K,
               "a sharded field needs at least one district per shard: "
               "territories are runs of whole district strips");
  const PhyParams phy{};  // run_experiment builds with default radio params

  // --- Partition: draw the global placement and deal the x-ordered
  // district strips to shards contiguously. A node is placed in its strip
  // and never moves out of it, so a territory — the Rect spanning its
  // shard's strips — is exact. All static; no network exists yet.
  Rng placement_rng(cfg.seed);
  const std::vector<Position> gpos = node_positions(cfg, placement_rng);
  const int D = cfg.field.districts;
  auto shard_of = [K, D](int district) {
    return static_cast<std::size_t>(district * K / D);
  };
  std::vector<Rect> territories(static_cast<std::size_t>(K));
  for (int d = 0; d < D; ++d) {
    // Strips are x-ordered and full height: a run of them spans from its
    // first strip's x0 to its last strip's x1.
    const Rect strip = district_rect(cfg.field, d);
    Rect& t = territories[shard_of(d)];
    if (d == 0 || shard_of(d - 1) != shard_of(d)) t = strip;
    t.x1 = strip.x1;
  }
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(K));
  for (std::size_t i = 0; i < gpos.size(); ++i) {
    members[shard_of(district_of(cfg.field, i))].push_back(i);
  }
  for (const std::vector<std::size_t>& m : members) {
    MUZHA_ASSERT(!m.empty(), "a shard ended up with no nodes");
  }

  SimTime lookahead =
      dbg.force_lookahead > SimTime::zero()
          ? dbg.force_lookahead
          : conservative_lookahead(territories, phy.cs_range, phy.propagation);
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
                    phy.cs_range, &territories);
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
    // Saturating add: with no bound, one window runs to the horizon.
    const SimTime window_end =
        window_start + std::min(lookahead, SimTime::max() - window_start);
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
      // grinding through empty lookahead windows.
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
