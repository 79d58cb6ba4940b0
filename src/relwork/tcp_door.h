// TCP-DOOR: Detection of Out-of-Order and Response (Wang & Zhang, MobiHoc
// 2002) — the pure end-to-end related-work approach of Sec. 3.1.
//
// Out-of-order packet delivery is interpreted as evidence of a route change
// (not congestion). Detection:
//   * ACK regression: a non-duplicate ACK older than the cumulative point.
//   * Dup-ACK stream reordering, via the one-byte option the receiver
//     increments on each duplicate ACK (TcpHeader::dup_seq).
// Response:
//   * Temporarily disable congestion-control decreases for T1 = 1 s after an
//     out-of-order event (losses during a route change are not congestion).
//   * Instant recovery: if a congestion decrease happened within T2 = 2 s
//     before the event, restore the pre-decrease window state.
#pragma once

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/units.h"
#include "tcp/tcp_variants.h"

namespace muzha {

class TcpDoor : public TcpNewReno {
 public:
  using TcpNewReno::TcpNewReno;

  std::uint64_t ooo_events() const { return ooo_events_; }
  std::uint64_t instant_recoveries() const { return instant_recoveries_; }
  bool cc_disabled();

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
  void on_dup_ack(const TcpHeader& h) override;
  void on_loss(const TcpHeader& h) override;
  void on_old_ack(const TcpHeader& h) override;

 private:
  void on_ooo_detected();

  std::uint32_t last_dup_seq_ = 0;
  SimTime cc_disabled_until_;

  // Snapshot of the window state before the most recent decrease.
  bool have_snapshot_ = false;
  Segments snap_cwnd_;
  Segments snap_ssthresh_;
  SimTime snap_time_;

  std::uint64_t ooo_events_ = 0;
  std::uint64_t instant_recoveries_ = 0;
};

}  // namespace muzha
