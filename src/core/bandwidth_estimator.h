// Per-node available-bandwidth estimator feeding the DRAI (Sec. 4.3).
//
// Polls the device periodically: medium utilization is the EWMA of the
// fraction of each sample interval the PHY sensed the medium busy;
// queue occupancy is read instantaneously when a packet is stamped. Attach
// one estimator per Muzha-capable node (Node::set_drai_source).
#pragma once

#include "core/drai.h"
#include "net/agent.h"
#include "net/wireless_device.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

class BandwidthEstimator final : public DraiSource {
 public:
  BandwidthEstimator(Simulator& sim, WirelessDevice& device,
                     DraiConfig cfg = {});

  // Begins periodic utilization sampling.
  void start();

  // The DRAI level the estimator publishes now.
  std::uint8_t current_drai() const;
  // DraiSource: the current DRAI, marked at moderate deceleration or below.
  DraiStamp stamp() override;

  double utilization() const { return util_ewma_; }
  // Queue growth rate (EWMA); meaningful once started.
  SegmentsPerSecond queue_gradient() const { return gradient_ewma_; }
  const DraiConfig& config() const { return cfg_; }

 private:
  void sample();

  Simulator& sim_;
  WirelessDevice& device_;
  DraiConfig cfg_;
  double util_ewma_ = 0.0;
  SegmentsPerSecond gradient_ewma_;
  double last_queue_size_ = 0.0;
  SimTime last_busy_total_;
  bool started_ = false;
};

}  // namespace muzha
