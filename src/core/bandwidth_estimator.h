// Per-node available-bandwidth estimator feeding the DRAI (Sec. 4.3).
//
// Medium utilization is the EWMA of the fraction of each sample interval
// the PHY sensed the medium busy; queue growth is the EWMA of the IFQ
// length's change per interval; queue occupancy is read instantaneously
// when a packet is stamped. The estimator keeps no event: the PHY hands it
// the busy total at each interval boundary, lazily and in order (see
// phy/wireless_phy.h, "Busy samples"), and it reads the IFQ length then,
// which no change has moved since the boundary. Every read folds the
// boundaries that have passed first. Attach one estimator per
// Muzha-capable node (Node::set_drai_source).
#pragma once

#include <cstdint>

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
  BandwidthEstimator(const BandwidthEstimator&) = delete;
  BandwidthEstimator& operator=(const BandwidthEstimator&) = delete;
  // Detaches from the PHY, which may outlive the estimator.
  ~BandwidthEstimator() override;

  // Begins utilization sampling: the first boundary is one sample interval
  // from now.
  void start();

  // The DRAI level the estimator publishes now.
  std::uint8_t current_drai();
  // DraiSource: the current DRAI, marked at moderate deceleration or below.
  DraiStamp stamp() override;

  double utilization();
  // Queue growth rate (EWMA); meaningful once started.
  SegmentsPerSecond queue_gradient();
  const DraiConfig& config() const { return cfg_; }

 private:
  // Folds one boundary, at which the PHY's busy total was `busy_total`.
  void sample(SimTime busy_total);

  WirelessDevice& device_;
  DraiConfig cfg_;
  double util_ewma_ = 0.0;
  SegmentsPerSecond gradient_ewma_;
  double last_queue_size_ = 0.0;
  SimTime last_busy_total_;
  bool started_ = false;
};

}  // namespace muzha
