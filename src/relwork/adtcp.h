// ADTCP (Fu, Greenstein et al., ICNP 2002) — the multi-metric end-to-end
// approach of Sec. 3.1.
//
// The receiver measures four signals on every arrival and classifies the
// network state, which rides back to the sender on each ACK:
//
//   IDD — inter-packet delay difference (send-spacing vs arrival-spacing):
//         rises with queueing; insensitive to random channel error.
//   STT — short-term throughput: falls under congestion.
//   POR — packet out-of-order ratio: rises across route changes.
//   PLR — packet loss ratio (sequence gaps): rises with channel error.
//
// Joint identification over a 1 s sample window (high/low judged against
// long-term EWMAs with gain 0.1):
//   IDD > 2 x long AND STT < 0.5 x long -> CONGESTION
//   else POR > 0.15                     -> ROUTE_CHANGE
//   else PLR > 0.10                     -> CHANNEL_ERROR
//   else                                -> NORMAL
//
// The AdtcpSender reacts: congestion -> Reno-style decrease; channel error
// -> retransmit at the same rate; route change -> freeze (no decrease, no
// RTO collapse on the next timeout).
#pragma once

#include <deque>

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_variants.h"

namespace muzha {

class AdtcpSink final : public TcpSink {
 public:
  using TcpSink::TcpSink;

  AdtcpState state() const { return state_; }
  double idd() const { return idd_short_; }
  double stt() const { return stt_short_; }
  double por() const { return por_; }
  double plr() const { return plr_; }

  void receive(PacketPtr pkt) override;

 protected:
  void customize_ack(TcpHeader& ack, const Packet& data, bool is_dup) override;

 private:
  void update_metrics(const Packet& data);
  void classify();

  // Arrival history within the sliding window: (arrival time, seqno,
  // sender timestamp).
  struct Sample {
    SimTime arrival;
    std::int64_t seq;
    SimTime sent;
  };
  std::deque<Sample> samples_;

  double idd_short_ = 0.0, idd_long_ = 0.0;
  double stt_short_ = 0.0, stt_long_ = 0.0;
  double por_ = 0.0;
  double plr_ = 0.0;
  std::int64_t max_seq_seen_ = -1;
  AdtcpState state_ = AdtcpState::kNormal;
};

class AdtcpSender : public TcpNewReno {
 public:
  using TcpNewReno::TcpNewReno;

  std::uint64_t non_congestion_losses() const { return non_congestion_losses_; }
  AdtcpState last_state() const { return last_state_; }

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
  void on_dup_ack(const TcpHeader& h) override;
  void on_loss(const TcpHeader& h) override;
  void on_timeout() override;

 private:
  AdtcpState last_state_ = AdtcpState::kNormal;
  std::uint64_t non_congestion_losses_ = 0;
};

}  // namespace muzha
