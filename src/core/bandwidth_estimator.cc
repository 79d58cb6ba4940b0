#include "core/bandwidth_estimator.h"

#include <algorithm>

#include "core/drai.h"
#include "net/agent.h"
#include "net/wireless_device.h"
#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

namespace {
// EWMA weight of the newest utilization and queue-growth samples.
constexpr double kEwmaAlpha = 0.5;
// Queue growth (EWMA) above which DraiConfig::use_queue_gradient caps the
// DRAI at "stabilize"; twice this caps it at "moderate deceleration".
constexpr SegmentsPerSecond kGradientStabilize = SegmentsPerSecond(5.0);
}  // namespace

BandwidthEstimator::BandwidthEstimator(Simulator& /*sim*/,
                                       WirelessDevice& device, DraiConfig cfg)
    : device_(device), cfg_(cfg) {}

BandwidthEstimator::~BandwidthEstimator() {
  if (started_) device_.phy().clear_busy_sampler();
}

void BandwidthEstimator::start() {
  if (started_) return;
  started_ = true;
  last_busy_total_ = device_.phy().cumulative_busy_time();
  device_.phy().set_busy_sampler(
      DraiConfig::sample_interval,
      [this](SimTime busy_total) { sample(busy_total); });
}

void BandwidthEstimator::sample(SimTime busy_total) {
  SimTime delta = busy_total - last_busy_total_;
  last_busy_total_ = busy_total;
  double inst = static_cast<double>(delta.ns()) /
                static_cast<double>(DraiConfig::sample_interval.ns());
  if (inst > 1.0) inst = 1.0;
  util_ewma_ = kEwmaAlpha * inst + (1.0 - kEwmaAlpha) * util_ewma_;

  double q = static_cast<double>(device_.queue().size());
  SegmentsPerSecond inst_gradient =
      Segments(q - last_queue_size_) / to_seconds(DraiConfig::sample_interval);
  last_queue_size_ = q;
  gradient_ewma_ =
      kEwmaAlpha * inst_gradient + (1.0 - kEwmaAlpha) * gradient_ewma_;
}

double BandwidthEstimator::utilization() {
  device_.phy().sync_busy_samples();
  return util_ewma_;
}

SegmentsPerSecond BandwidthEstimator::queue_gradient() {
  device_.phy().sync_busy_samples();
  return gradient_ewma_;
}

std::uint8_t BandwidthEstimator::current_drai() {
  device_.phy().sync_busy_samples();
  std::uint8_t level =
      compute_drai(device_.queue().occupancy(), util_ewma_, cfg_);
  if (cfg_.use_queue_gradient) {
    // A growing queue caps the recommendation even before occupancy
    // thresholds trip: announce congestion while it is forming.
    if (gradient_ewma_ >= 2.0 * kGradientStabilize) {
      level = std::min(level, kDraiModerateDecel);
    } else if (gradient_ewma_ >= kGradientStabilize) {
      level = std::min(level, kDraiStabilize);
    }
  }
  return level;
}

DraiStamp BandwidthEstimator::stamp() {
  const std::uint8_t drai = current_drai();
  return {drai, drai <= kDraiModerateDecel};
}

}  // namespace muzha
