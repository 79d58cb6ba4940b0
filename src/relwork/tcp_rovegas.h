// TCP RoVegas (Chan, Chan & Chen, Computer Communications 2004) — the
// router-assisted Vegas enhancement of Sec. 3.2.
//
// Plain Vegas infers queueing from RTT, so backward-path (ACK-path)
// congestion falsely shrinks its window. RoVegas has routers accumulate the
// actual per-hop queueing delay of each *data* packet in an IP option
// (IpHeader::accum_queue_delay, filled by every device on the forward
// path); the receiver echoes it (TcpHeader::qdelay_echo). The sender then
// estimates the queue backlog from forward-path delay only:
//
//   diff = cwnd * q_fwd / (baseRTT + q_fwd)
//
// which is immune to ACK-path queueing and delayed ACKs.
#pragma once

#include "pkt/packet.h"
#include "sim/units.h"
#include "tcp/tcp_vegas.h"

namespace muzha {

class TcpRoVegas : public TcpVegas {
 public:
  using TcpVegas::TcpVegas;

 protected:
  void note_ack(const TcpHeader& h) override;
  double compute_diff() const override;
  void on_epoch_reset() override;

 private:
  // Min forward queueing delay this epoch; valid only when the flag is set
  // (a sentinel negative duration would be a unit-system abuse).
  bool have_epoch_qdelay_ = false;
  Seconds epoch_qdelay_;
};

}  // namespace muzha
