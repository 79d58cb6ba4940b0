// TCP Westwood (Gerla, Sanadidi et al., GLOBECOM 2001) — paper reference
// [24]: end-to-end bandwidth estimation from the ACK stream, used to set
// ssthresh after loss ("faster recovery") instead of blind halving.
//
//   per ACK:  b_k = acked_segments / (t_k - t_{k-1})
//   BWE      low-pass (Tustin) filtered: bwe = a*bwe + (1-a)/2*(b_k + b_{k-1}),
//            a = 0.9
//   on 3 dup ACKs:  ssthresh = BWE * RTT_min;  cwnd = min(cwnd, ssthresh)
//   on timeout:     ssthresh = BWE * RTT_min;  cwnd = 1
//
// Unlike TCP Jersey (which shares the estimation idea), Westwood needs no
// router support at all.
#pragma once

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/units.h"
#include "tcp/tcp_variants.h"

namespace muzha {

class TcpWestwood : public TcpNewReno {
 public:
  using TcpNewReno::TcpNewReno;

  SegmentsPerSecond bandwidth_estimate() const { return bwe_; }
  Segments eligible_window() const;

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
  void on_loss(const TcpHeader& h) override;
  void on_timeout() override;

 private:
  void update_bwe(std::int64_t newly_acked);

  SegmentsPerSecond bwe_;
  SegmentsPerSecond prev_sample_;
  SimTime last_ack_time_;
  Seconds min_rtt_;  // zero = no sample yet
};

}  // namespace muzha
