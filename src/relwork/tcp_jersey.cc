#include "relwork/tcp_jersey.h"

#include <algorithm>

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/units.h"
#include "tcp/tcp_variants.h"

namespace muzha {

Segments TcpJersey::abe_window() const {
  if (re_ <= SegmentsPerSecond(0.0) || min_rtt_ <= Seconds(0.0)) {
    return Segments(2.0);
  }
  return std::max(Segments(2.0), re_ * min_rtt_);
}

void TcpJersey::update_rate_estimate(std::int64_t newly_acked) {
  SimTime now = sim().now();
  double rtt = srtt_or_default().value();
  if (last_ack_time_ > SimTime::zero()) {
    double dt = (now - last_ack_time_).to_seconds();
    re_ = SegmentsPerSecond(
        (rtt * re_.value() + static_cast<double>(newly_acked)) / (dt + rtt));
  } else {
    re_ = SegmentsPerSecond(static_cast<double>(newly_acked) / rtt);
  }
  last_ack_time_ = now;
}

void TcpJersey::on_new_ack(const TcpHeader& h, std::int64_t newly_acked) {
  update_rate_estimate(newly_acked);
  if (h.ts_echo > SimTime::zero() && !seq_was_retransmitted(h.seqno)) {
    Seconds rtt = to_seconds(sim().now() - h.ts_echo);
    if (min_rtt_ == Seconds(0.0) || rtt < min_rtt_) min_rtt_ = rtt;
  }
  if (h.ce_echo && !in_recovery() && sim().now() >= next_clamp_allowed_) {
    // Congestion warning from a router: proactively fall back to the ABE
    // window, at most once per RTT.
    Segments ownd = abe_window();
    if (ownd < cwnd()) {
      ++cw_clamps_;
      set_ssthresh(ownd);
      set_cwnd(ownd);
    }
    next_clamp_allowed_ = sim().now() + to_sim_time(srtt_or_default());
    return;
  }
  TcpNewReno::on_new_ack(h, newly_acked);
}

void TcpJersey::on_loss(const TcpHeader&) {
  // Rate-based fast recovery: window jumps to the ABE estimate instead of
  // blindly halving.
  Segments ownd = abe_window();
  set_ssthresh(ownd);
  set_cwnd(ownd);
}

void TcpJersey::on_timeout() { restart_after_timeout(abe_window()); }

}  // namespace muzha
