#include "tcp/rto_estimator.h"

#include "sim/sim_time.h"

namespace muzha {

void RtoEstimator::sample(SimTime rtt) {
  if (!has_sample_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    has_sample_ = true;
  } else {
    // RFC 6298: alpha = 1/8, beta = 1/4.
    SimTime err = rtt - srtt_;
    if (err < SimTime::zero()) err = SimTime::zero() - err;
    rttvar_ = rttvar_.scaled(0.75) + err.scaled(0.25);
    srtt_ = srtt_.scaled(0.875) + rtt.scaled(0.125);
  }
  backoff_exponent_ = 0;
  rto_ = srtt_ + 4 * rttvar_;
  clamp();
}

void RtoEstimator::backoff() {
  ++backoff_exponent_;
  rto_ = rto_ * 2;
  clamp();
}

void RtoEstimator::reset_backoff() {
  if (backoff_exponent_ == 0) return;
  backoff_exponent_ = 0;
  rto_ = has_sample_ ? srtt_ + 4 * rttvar_ : kInitialRto;
  clamp();
}

void RtoEstimator::clamp() {
  if (rto_ < kMinRto) rto_ = kMinRto;
  if (rto_ > kMaxRto) rto_ = kMaxRto;
}

}  // namespace muzha
