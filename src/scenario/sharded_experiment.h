// Conservative parallel execution of one experiment: spatial shards, one
// event core per shard, synchronized by a lookahead barrier.
//
// The field's district strips (FieldConfig::districts, x-ordered) are dealt
// to the `cfg.shards` shards contiguously — shard = district * K / D — for
// static and mobile fields alike, and a shard's territory is the Rect
// spanning its strips. Each shard owns the nodes of its districts and runs
// them on a private Simulator (scheduler + RNG) — a full per-shard Network —
// on a sticky worker thread (sim/shard_exec.h). Time advances in globally
// agreed windows [T, T+L): every shard executes its local events inside the
// window, records each local transmission that could reach another shard's
// territory (phy/channel.h BoundarySink), and stops. At the barrier the
// orchestrator routes the recorded frames to their destination shards,
// every shard injects its inbox in deterministic order, and the next window
// opens.
//
// Correctness rests on the conservative lookahead: L never exceeds the
// propagation delay across the smallest gap between two coupled
// territories, so a frame transmitted anywhere in window [T, T+L) arrives
// at a foreign shard no earlier than T+L — always in the receiver's future.
// Channel::deliver MUZHA_DCHECKs exactly that (the causality invariant).
// When no pair of territories is within carrier-sense range no frame ever
// crosses, nothing bounds L, and the run reaches its horizon in one window.
// Territories are static: a node is placed in its district strip and its
// random-waypoint motion stays inside it, so node->shard ownership never
// changes and the gap between territories never shrinks.
//
// Every shard builds its nodes, flows and routers through the same
// build_stack() as a one-core run (scenario/stack.h), and the results are
// read back through the same collect(); this file adds only the partition,
// the window loop and the boundary exchange. shards == 1 never comes here:
// run_experiment() builds and runs it on the calling thread.
//
// Determinism: every shard's event core is sequential and seeded; the only
// cross-shard channel is the barrier exchange, and inboxes are injected in
// (tx_time, src_shard, seq) order — a total order independent of thread
// scheduling. Results are therefore bit-identical run-to-run and for every
// `shard_jobs` value. Placement is drawn from Rng(cfg.seed) and each shard
// runs on its own RNG stream, so a K-shard run is a different — equally
// valid, equally pinned — sample of the scenario than the one-core run.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/position.h"
#include "pkt/packet.h"
#include "scenario/city.h"
#include "scenario/experiment.h"
#include "sim/sim_time.h"
#include "sim/units.h"

namespace muzha {

// A frame crossing shard territory, exchanged at a lookahead barrier.
// Carries the Packet BY VALUE: the thread-local packet arena forbids
// cross-thread release, so the receiver clones from this plain copy into
// its own arena (Packet has no owning members — see pkt/packet.h).
struct BoundaryMessage {
  SimTime tx_time;         // transmission start on the source shard
  std::uint32_t src_shard = 0;
  std::uint64_t seq = 0;   // per-source-shard transmission counter
  Position src_pos;        // transmitter position at tx_time
  SimTime duration;        // on-air time
  std::uint64_t dst_mask = 0;  // bit s set: ship to shard s
  Packet pkt;
};

// Deterministic merge order of an inbox: (tx_time, src_shard, seq). Total:
// seq is unique per shard, so no two distinct messages compare equal.
inline bool boundary_message_order(const BoundaryMessage& a,
                                   const BoundaryMessage& b) {
  if (a.tx_time != b.tx_time) return a.tx_time < b.tx_time;
  if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
  return a.seq < b.seq;
}

// Minimum distance between two territories (0 when they touch or overlap).
double rect_gap(const Rect& a, const Rect& b);

// Minimum distance from a point to a territory (0 when inside).
double rect_distance(Position p, const Rect& r);

// The conservative window width: min over coupled territory pairs (gap at
// most cs_range — only those ever exchange frames) of the propagation delay
// across the pair's gap, floored at 1 ns. SimTime::max() — no bound — when
// no pair is coupled.
SimTime conservative_lookahead(const std::vector<Rect>& territories,
                               Meters cs_range, MetersPerSecond propagation);

// Testing hooks.
struct ShardDebugOptions {
  // Overrides the computed lookahead window. Used by the tests: a window
  // wider than the minimum cross-shard propagation delay must trip the
  // MUZHA_DCHECK in Channel::deliver, and a decoupled city must give the
  // same results whatever the window.
  SimTime force_lookahead;  // 0 = use conservative_lookahead()
};

// Runs cfg on cfg.shards event cores; run_experiment() calls it whenever
// cfg.shards != 1. Requirements:
//  - 2 <= shards <= 64;
//  - topology kRandomField or kManhattanGrid;
//  - field.districts >= shards (each shard gets at least one strip);
//  - at least one node per shard.
ExperimentResult run_sharded_experiment(const ExperimentConfig& cfg,
                                        const ShardDebugOptions& dbg = {});

}  // namespace muzha
