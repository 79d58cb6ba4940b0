// Parallel execution of one experiment over decoupled districts: spatial
// shards, one event core per shard, nothing exchanged between them.
//
// The field's district strips (FieldConfig::districts, x-ordered) are dealt
// to the `cfg.shards` shards contiguously — shard = district * K / D — for
// static and mobile fields alike. Each shard owns the nodes of its districts
// and runs them on a private Simulator (scheduler + RNG) — a full per-shard
// Network — on one thread of the pool in sim/shard_exec.h.
//
// Sharding covers decoupled districts only. Strips are full height, so the
// gap between two shards is one district_gap, and it must be wider than
// carrier-sense range: then no frame ever reaches another shard and every
// shard runs to the horizon on its own. A node is placed in its strip and
// its random-waypoint motion stays inside it, so the gap never shrinks.
// Coupled districts would need a lookahead barrier and a boundary exchange,
// and with a propagation-delay lookahead they ran 25-59x slower than one
// core (DESIGN.md "Sharded event cores"), so they are rejected up front.
//
// A sharded run is four steps: partition; one phase in which each shard
// builds through the same build_stack() as a one-core run
// (scenario/stack.h) and runs to cfg.duration on the same thread;
// collect() on the caller; and a teardown phase. shards == 1 never comes
// here: run_experiment() builds and runs it on the calling thread.
//
// Determinism: every shard's event core is sequential and seeded, and the
// shards share nothing while they run, so results are bit-identical
// run-to-run and for every `shard_jobs` value. Placement is drawn from
// Rng(cfg.seed) and each shard runs on its own RNG stream, so a K-shard run
// is a different — equally valid, equally pinned — sample of the scenario
// than the one-core run.
#pragma once

#include "scenario/experiment.h"

namespace muzha {

// Runs cfg on cfg.shards event cores; run_experiment() calls it whenever
// cfg.shards != 1, once validate() has accepted cfg. Its sharding rules
// (scenario/experiment.h) ask for a kRandomField with at least one
// district per shard and a district_gap beyond carrier-sense range, so no
// frame crosses a gap. It also needs at least one node per shard.
ExperimentResult run_sharded_experiment(const ExperimentConfig& cfg);

}  // namespace muzha
