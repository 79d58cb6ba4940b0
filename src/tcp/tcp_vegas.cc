#include "tcp/tcp_vegas.h"

#include <algorithm>

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/units.h"
#include "tcp/tcp_agent.h"

namespace muzha {

namespace {

// Backlog bounds in segments: grow below alpha, shrink above beta, leave
// slow start above gamma.
constexpr double kAlpha = 1.0;
constexpr double kBeta = 3.0;
constexpr double kGamma = 1.0;

}  // namespace

void TcpVegas::on_new_ack(const TcpHeader& h, std::int64_t) {
  if (in_recovery()) {
    if (h.seqno >= recover_point()) {
      exit_recovery_bookkeeping();
      set_cwnd(ssthresh());
    } else {
      // NewReno-style partial-ACK retransmission keeps multi-loss windows
      // from stalling into timeouts.
      retransmit(h.seqno + 1);
    }
    return;
  }

  // Collect an RTT sample for the Vegas estimator (Karn-safe).
  if (h.ts_echo > SimTime::zero() && !seq_was_retransmitted(h.seqno)) {
    Seconds rtt = to_seconds(sim().now() - h.ts_echo);
    if (base_rtt_ == Seconds(0.0) || rtt < base_rtt_) base_rtt_ = rtt;
    if (epoch_rtt_ == Seconds(0.0) || rtt < epoch_rtt_) epoch_rtt_ = rtt;
  }
  note_ack(h);

  if (h.seqno >= epoch_end_seq_) end_of_epoch();
}

double TcpVegas::compute_diff() const {
  return cwnd().value() * (1.0 - base_rtt_ / epoch_rtt_);
}

void TcpVegas::end_of_epoch() {
  if (epoch_rtt_ > Seconds(0.0) && base_rtt_ > Seconds(0.0)) {
    last_diff_ = compute_diff();
    if (cwnd() < ssthresh()) {
      // Slow start: terminate as soon as the network starts queueing.
      if (last_diff_ > kGamma) {
        set_cwnd(std::max(cwnd() - cwnd() / 8.0, Segments(2.0)));
        set_ssthresh(Segments(2.0));  // switch to congestion avoidance
      } else if (ss_grow_this_epoch_) {
        set_cwnd(cwnd() * 2.0);
      }
      ss_grow_this_epoch_ = !ss_grow_this_epoch_;
    } else {
      if (last_diff_ < kAlpha) {
        set_cwnd(cwnd() + Segments(1.0));
      } else if (last_diff_ > kBeta) {
        set_cwnd(std::max(cwnd() - Segments(1.0), Segments(2.0)));
      }
      // else: within [alpha, beta] — hold.
    }
  }
  epoch_rtt_ = Seconds(0.0);
  epoch_end_seq_ = next_seq();
  on_epoch_reset();
}

void TcpVegas::on_dup_ack(const TcpHeader&) {
  if (in_recovery()) {
    send_much();
    return;
  }
  if (dupacks() != kDupAckThreshold) return;
  // Vegas reduces less aggressively than Reno on loss (3/4 rather than 1/2).
  set_ssthresh(std::max(cwnd() * 0.75, Segments(2.0)));
  enter_recovery_bookkeeping();
  set_cwnd(ssthresh());
  retransmit(highest_ack() + 1);
}

void TcpVegas::on_timeout() {
  epoch_rtt_ = Seconds(0.0);
  TcpAgent::on_timeout();
  epoch_end_seq_ = next_seq();
}

}  // namespace muzha
