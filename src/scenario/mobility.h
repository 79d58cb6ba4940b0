// Node mobility models.
//
// The paper's evaluation pins nodes ("we don't consider the link failure
// problem caused by mobility in this work") but names mobility support as
// essential future work, and its Ch. 2 analysis of route failures assumes
// it. These models move nodes by updating their PHY positions on a fixed
// tick; the channel evaluates geometry per transmission, so movement
// naturally produces link breaks, AODV route failures and re-discoveries.
//
//  * LinearMobility       — constant-velocity segments; deterministic, used
//                           by tests and mobility_demo to break links on
//                           cue.
//  * RandomWaypointMobility — the classic MANET model: pick a waypoint
//                           uniformly in a rectangle, travel at a uniform
//                           random speed, pause, repeat.
#pragma once

#include <cstddef>
#include <vector>

#include "net/node.h"
#include "phy/position.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

// Moves one node along a velocity vector, which set_velocity changes.
class LinearMobility {
 public:
  struct Config {
    MetersPerSecond vx;
    MetersPerSecond vy;
  };
  // Position update period.
  static constexpr SimTime kTick = SimTime::from_ms(100);

  LinearMobility(Simulator& sim, Node& node, Config cfg)
      : sim_(sim), node_(node), cfg_(cfg) {}

  void start() { schedule(); }

  void set_velocity(MetersPerSecond vx, MetersPerSecond vy) {
    cfg_.vx = vx;
    cfg_.vy = vy;
  }

 private:
  void schedule() {
    sim_.schedule_in(kTick, [this] { tick(); });
  }
  void tick() {
    Position p = node_.device().phy().position();
    double dt = kTick.to_seconds();
    p.x += cfg_.vx.value() * dt;
    p.y += cfg_.vy.value() * dt;
    node_.device().phy().set_position(p);
    schedule();
  }

  Simulator& sim_;
  Node& node_;
  Config cfg_;
};

// Random waypoint over a rectangle.
class RandomWaypointMobility {
 public:
  struct Config {
    double min_x = 0.0, max_x = 1000.0;
    double min_y = 0.0, max_y = 1000.0;
    MetersPerSecond min_speed = MetersPerSecond(1.0);
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
