// DRAI (Data Rate Adjustment Index) quantization — the router half of TCP
// Muzha (Secs. 4.3-4.6 of the paper).
//
// The paper deliberately leaves the DRAI formula empirical ("there doesn't
// exist any theoretical formula... we take empirical approach"), specifying
// only the five recommendation levels of Table 5.2. This implementation
// quantizes two locally observable signals into those levels:
//
//   * IFQ occupancy `q` — how much of the 50-packet drop-tail queue is used;
//     the direct precursor of congestion loss.
//   * Medium utilization `u` — EWMA fraction of time the 802.11 medium is
//     sensed busy at this node; in multihop wireless this rises with
//     contention long before queues overflow.
//
// Each signal maps to a level; the published DRAI is the minimum of the two
// (the more congested signal wins). The thresholds are settable: the
// ablation_drai figure of bench/paper_figures sweeps them.
#pragma once

#include <cstdint>

#include "sim/sim_time.h"
#include "sim/units.h"

namespace muzha {

struct DraiConfig {
  // Queue-occupancy thresholds (fractions of IFQ capacity), ascending.
  double q_aggressive_accel = 0.05;  // below: level 5
  double q_moderate_accel = 0.25;    // below: level 4
  double q_stabilize = 0.55;         // below: level 3
  double q_moderate_decel = 0.85;    // below: level 2, above: level 1
  // Utilization thresholds, ascending.
  double u_aggressive_accel = 0.50;  // below: level 5
  double u_moderate_accel = 0.80;    // below: level 4
  double u_stabilize = 0.96;         // below: level 3, above: level 2
  // Utilization sampling, a constant (the estimator's EWMA weight is in
  // bandwidth_estimator.cc).
  static constexpr SimTime sample_interval = SimTime::from_ms(50);

  // Future-work extension (paper Ch. 6: "consideration of queue size ... as
  // part of DRAI formula"): when enabled, a *rising* queue caps the
  // recommendation before absolute occupancy thresholds are reached —
  // congestion is announced while it is forming, not once it has formed.
  bool use_queue_gradient = false;
};

// Level from queue occupancy alone.
std::uint8_t drai_from_queue(double occupancy, const DraiConfig& cfg);

// Level from medium utilization alone (never reports aggressive
// deceleration: a busy medium with an empty queue is not an emergency).
std::uint8_t drai_from_utilization(double utilization, const DraiConfig& cfg);

// Combined node DRAI: the more congested of the two signals.
std::uint8_t compute_drai(double occupancy, double utilization,
                          const DraiConfig& cfg);

// Table 5.2: window update recommended by a DRAI level.
Segments apply_drai_to_cwnd(std::uint8_t drai, Segments cwnd);

}  // namespace muzha
