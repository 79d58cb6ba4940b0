#include "relwork/tcp_westwood.h"

#include <algorithm>

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/units.h"
#include "tcp/tcp_variants.h"

namespace muzha {

namespace {

// Gain of the Tustin low-pass filter over the bandwidth samples.
constexpr double kFilterAlpha = 0.9;

}  // namespace

Segments TcpWestwood::eligible_window() const {
  if (bwe_ <= SegmentsPerSecond(0.0) || min_rtt_ <= Seconds(0.0)) {
    return Segments(2.0);
  }
  return std::max(Segments(2.0), bwe_ * min_rtt_);
}

void TcpWestwood::update_bwe(std::int64_t newly_acked) {
  SimTime now = sim().now();
  if (last_ack_time_ > SimTime::zero()) {
    Seconds dt = to_seconds(now - last_ack_time_);
    if (dt > Seconds(0.0)) {
      SegmentsPerSecond sample =
          Segments(static_cast<double>(newly_acked)) / dt;
      bwe_ = kFilterAlpha * bwe_ +
             (1.0 - kFilterAlpha) * 0.5 * (sample + prev_sample_);
      prev_sample_ = sample;
    }
  }
  last_ack_time_ = now;
}

void TcpWestwood::on_new_ack(const TcpHeader& h, std::int64_t newly_acked) {
  update_bwe(newly_acked);
  if (h.ts_echo > SimTime::zero() && !seq_was_retransmitted(h.seqno)) {
    Seconds rtt = to_seconds(sim().now() - h.ts_echo);
    if (min_rtt_ == Seconds(0.0) || rtt < min_rtt_) min_rtt_ = rtt;
  }
  TcpNewReno::on_new_ack(h, newly_acked);
}

void TcpWestwood::on_loss(const TcpHeader&) {
  // Faster recovery: set the window from the measured rate, not half.
  Segments eligible = eligible_window();
  set_ssthresh(eligible);
  set_cwnd(std::min(cwnd(), eligible));
}

void TcpWestwood::on_timeout() { restart_after_timeout(eligible_window()); }

}  // namespace muzha
