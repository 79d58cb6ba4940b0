#include "scenario/mobility.h"

#include <cmath>

#include "phy/position.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace muzha {

void RandomWaypointMobility::start() {
  pick_waypoint();
  sim_.schedule_in(cfg_.tick, [this] { tick(); });
}

void RandomWaypointMobility::pick_waypoint() {
  Rng& rng = sim_.rng();
  waypoint_.x = rng.uniform(cfg_.min_x, cfg_.max_x);
  waypoint_.y = rng.uniform(cfg_.min_y, cfg_.max_y);
  speed_ = MetersPerSecond(
      rng.uniform(kMinSpeed.value(), cfg_.max_speed.value()));
  paused_ = false;
}

void RandomWaypointMobility::tick() {
  if (paused_) {
    if (sim_.now() >= pause_until_) pick_waypoint();
    sim_.schedule_in(cfg_.tick, [this] { tick(); });
    return;
  }
  Position p = node_.device().phy().position();
  double dx = waypoint_.x - p.x;
  double dy = waypoint_.y - p.y;
  double dist = std::sqrt(dx * dx + dy * dy);
  double step = speed_.value() * cfg_.tick.to_seconds();
  if (dist <= step) {
    // Arrived: pause, then choose the next waypoint.
    node_.device().phy().set_position(waypoint_);
    paused_ = true;
    pause_until_ = sim_.now() + cfg_.pause;
  } else {
    p.x += dx / dist * step;
    p.y += dy / dist * step;
    node_.device().phy().set_position(p);
  }
  sim_.schedule_in(cfg_.tick, [this] { tick(); });
}

}  // namespace muzha
