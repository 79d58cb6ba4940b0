#include "core/tcp_muzha.h"

#include <algorithm>

#include "core/drai.h"
#include "net/node.h"
#include "pkt/packet.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "tcp/tcp_agent.h"

namespace muzha {

TcpMuzha::TcpMuzha(Simulator& sim, Node& node, TcpConfig cfg)
    : TcpAgent(sim, node, cfg) {
  // Muzha has no slow start: sessions enter CA directly with a small initial
  // window (Sec. 4.8). No cwnd listener is attached yet, so this traces
  // nothing.
  set_cwnd(Segments(2.0));
  // ssthresh is meaningless for Muzha; park it out of the way so base-class
  // helpers never mistake CA for slow start.
  set_ssthresh(Segments(0.0));
}

void TcpMuzha::on_new_ack(const TcpHeader& h, std::int64_t) {
  if (in_recovery()) {
    if (h.seqno >= recover_point()) {
      // Full ACK: back to CA. The window change (if any) happened at FF
      // entry (Table 4.1); nothing more to do.
      exit_recovery_bookkeeping();
      epoch_mrai_ = kDraiAggressiveAccel;
      epoch_end_seq_ = next_seq();
    } else {
      // Partial ACK: next hole is also missing.
      retransmit(h.seqno + 1);
    }
    return;
  }
  epoch_mrai_ = std::min(epoch_mrai_, h.mrai);
  if (h.seqno >= epoch_end_seq_) end_of_epoch();
}

void TcpMuzha::end_of_epoch() {
  ++rate_adjustments_;
  last_epoch_mrai_ = epoch_mrai_;
  set_cwnd(apply_drai_to_cwnd(epoch_mrai_, cwnd()));
  epoch_mrai_ = kDraiAggressiveAccel;
  epoch_end_seq_ = next_seq();
}

void TcpMuzha::on_dup_ack(const TcpHeader& h) {
  if (in_recovery()) {
    // Keep the pipe fed while recovering; the window already encodes the
    // FF-entry decision.
    send_much();
    return;
  }
  if (dupacks() != kDupAckThreshold) return;
  if (h.marked || !loss_discrimination_) {
    // Router-marked duplicate ACKs: congestion loss. Halve and recover.
    ++marked_loss_events_;
    set_cwnd(std::max(cwnd() * 0.5, Segments(1.0)));
  } else {
    // Unmarked: random/link loss. Retransmit without slowing down
    // (Sec. 4.7) — the adjustment that spares Muzha the spurious
    // rate reductions of loss-probing TCP.
    ++unmarked_loss_events_;
  }
  enter_recovery_bookkeeping();
  retransmit(highest_ack() + 1);
}

void TcpMuzha::on_timeout() {
  // Table 4.1: CWND := 1 and re-enter CA (there is no slow-start phase to
  // fall back to).
  set_cwnd(Segments(1.0));
  exit_recovery_bookkeeping();
  epoch_mrai_ = kDraiAggressiveAccel;
  go_back_n();
  epoch_end_seq_ = next_seq();
}

}  // namespace muzha
