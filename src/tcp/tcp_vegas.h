// TCP Vegas: delay-based congestion avoidance (Brakmo & Peterson).
//
// Estimates the number of segments queued in the network as
//   diff = cwnd * (1 - baseRTT / RTT)
// once per RTT and nudges the window to keep alpha <= diff <= beta (1 and 3
// segments). Slow start doubles every *other* RTT and terminates as soon as
// diff exceeds gamma (1 segment), before losses occur — the conservative
// behaviour behind both its low retransmission counts and its small
// steady-state window in the paper's long-chain results.
#pragma once

#include "pkt/packet.h"
#include "sim/units.h"
#include "tcp/tcp_agent.h"

namespace muzha {

class TcpVegas : public TcpAgent {
 public:
  using TcpAgent::TcpAgent;

  Seconds base_rtt() const { return base_rtt_; }
  // Estimated backlog, in segments (dimensionless diff of the Vegas paper).
  double last_diff() const { return last_diff_; }
  // Whether the *next* slow-start epoch boundary doubles the window (slow
  // start grows every other RTT).
  bool slow_start_grow_epoch() const { return ss_grow_this_epoch_; }

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
  void on_dup_ack(const TcpHeader& h) override;
  void on_timeout() override;

  // Extension points for router-assisted Vegas variants (RoVegas).
  // Called for every in-sequence ACK before epoch-boundary processing.
  virtual void note_ack(const TcpHeader& h) { (void)h; }
  // Estimated number of segments queued in the network this epoch.
  virtual double compute_diff() const;
  // Called when an epoch ends, after the window adjustment.
  virtual void on_epoch_reset() {}

  Seconds epoch_rtt() const { return epoch_rtt_; }

 private:
  void end_of_epoch();

  Seconds base_rtt_;   // minimum RTT ever observed; zero = no sample yet
  Seconds epoch_rtt_;  // minimum RTT within the current epoch
  std::int64_t epoch_end_seq_ = 0;
  bool ss_grow_this_epoch_ = true;  // slow start doubles every other RTT
  double last_diff_ = 0.0;
};

}  // namespace muzha
