// Node mobility: random waypoint.
//
// The paper's evaluation pins nodes ("we don't consider the link failure
// problem caused by mobility in this work") but names mobility support as
// essential future work, and its Ch. 2 analysis of route failures assumes
// it. A mover updates its node's PHY position on a fixed tick; the channel
// evaluates geometry per transmission, so movement naturally produces link
// breaks, AODV route failures and re-discoveries. build_stack
// (scenario/stack.h) gives one to every node of a mobile field and to each
// interior relay of a chain with ExperimentConfig::relay_max_speed > 0.
#pragma once

#include "net/node.h"
#include "phy/position.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

// The classic MANET model over a rectangle: pick a waypoint uniformly in
// it, travel at a speed uniform in [kMinSpeed, max_speed], pause, repeat.
class RandomWaypointMobility {
 public:
  static constexpr MetersPerSecond kMinSpeed = MetersPerSecond(1.0);
  struct Config {
    double min_x = 0.0, max_x = 1000.0;
    double min_y = 0.0, max_y = 1000.0;
    MetersPerSecond max_speed = MetersPerSecond(10.0);
    SimTime pause = SimTime::from_seconds(2.0);
    SimTime tick = SimTime::from_ms(100);
  };

  RandomWaypointMobility(Simulator& sim, Node& node, Config cfg)
      : sim_(sim), node_(node), cfg_(cfg) {}

  void start();

  Position waypoint() const { return waypoint_; }
  MetersPerSecond speed() const { return speed_; }

 private:
  void pick_waypoint();
  void tick();

  Simulator& sim_;
  Node& node_;
  Config cfg_;
  Position waypoint_;
  MetersPerSecond speed_;
  bool paused_ = false;
  SimTime pause_until_;
};

}  // namespace muzha
