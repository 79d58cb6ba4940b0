// TCP Jersey (Xu, Tian & Ansari, JSAC 2004) — the router-assisted
// related-work approach of Sec. 3.2.
//
// Two components:
//   ABE — available bandwidth estimation at the sender from the ACK stream:
//         RE <- (RTT * RE + L) / (dt + RTT), with L the newly acknowledged
//         payload and dt the ACK inter-arrival time. The "optimal" window is
//         ownd = RE * RTT_min / segment_size.
//   CW  — congestion warning: routers mark *all* packets while their queue
//         exceeds a threshold (non-probabilistic, unlike ECN/RED); the
//         receiver echoes the mark on every ACK (TcpHeader::ce_echo).
//
// Reaction: on a CW-echo ACK, clamp cwnd to ownd (at most once per RTT); on
// three duplicate ACKs, retransmit and set cwnd = ownd (rate-based fast
// recovery); on timeout, classic slow-start restart with ssthresh = ownd.
//
// In this reproduction the router marking comes from the same per-node load
// estimator Muzha uses (a node marks when its DRAI enters the deceleration
// region), which matches CW's "mark everything when the queue crosses a
// threshold" semantics.
#pragma once

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/units.h"
#include "tcp/tcp_variants.h"

namespace muzha {

class TcpJersey : public TcpNewReno {
 public:
  using TcpNewReno::TcpNewReno;

  SegmentsPerSecond rate_estimate() const { return re_; }
  Segments abe_window() const;
  std::uint64_t cw_clamps() const { return cw_clamps_; }

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
  void on_loss(const TcpHeader& h) override;
  void on_timeout() override;

 private:
  void update_rate_estimate(std::int64_t newly_acked);

  SegmentsPerSecond re_;  // ABE rate estimate
  SimTime last_ack_time_;
  Seconds min_rtt_;  // zero = no sample yet
  SimTime next_clamp_allowed_;
  std::uint64_t cw_clamps_ = 0;
};

}  // namespace muzha
