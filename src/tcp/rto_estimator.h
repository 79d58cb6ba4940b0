// Jacobson/Karels RTO estimation with Karn's algorithm handled by the caller
// (retransmitted segments are never sampled) and exponential backoff on
// timeout.
#pragma once

#include "sim/sim_time.h"

namespace muzha {

// The RTO before the first RTT sample, and the floor and cap that clamp
// every RTO.
inline constexpr SimTime kInitialRto = SimTime::from_seconds(3.0);
inline constexpr SimTime kMinRto = SimTime::from_ms(200);
inline constexpr SimTime kMaxRto = SimTime::from_seconds(60.0);

class RtoEstimator {
 public:
  // Feeds one round-trip sample (never from a retransmitted segment).
  void sample(SimTime rtt);

  // Doubles the RTO after a retransmission timeout.
  void backoff();

  // Forward progress (a new cumulative ACK): ends the backoff series and
  // restores the RTO computed from the current srtt/rttvar estimate (or the
  // initial RTO when no sample exists yet). No-op outside a backoff series.
  void reset_backoff();

  SimTime rto() const { return rto_; }
  SimTime srtt() const { return srtt_; }
  SimTime rttvar() const { return rttvar_; }
  bool has_sample() const { return has_sample_; }
  // Number of consecutive backoffs since the last sample or reset: the RTO
  // is estimate * 2^backoff_exponent, saturated at kMaxRto.
  int backoff_exponent() const { return backoff_exponent_; }

 private:
  void clamp();

  SimTime rto_ = kInitialRto;
  SimTime srtt_;
  SimTime rttvar_;
  bool has_sample_ = false;
  int backoff_exponent_ = 0;
};

}  // namespace muzha
