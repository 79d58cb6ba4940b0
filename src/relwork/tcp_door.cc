#include "relwork/tcp_door.h"

#include <algorithm>

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "tcp/tcp_variants.h"

namespace muzha {

namespace {

// T1: how long an out-of-order event suppresses congestion decreases.
constexpr SimTime kDisableCc = SimTime::from_seconds(1.0);
// T2: how recent a decrease must be for an out-of-order event to undo it.
constexpr SimTime kInstantRecovery = SimTime::from_seconds(2.0);

}  // namespace

bool TcpDoor::cc_disabled() { return sim().now() < cc_disabled_until_; }

void TcpDoor::on_ooo_detected() {
  ++ooo_events_;
  cc_disabled_until_ = sim().now() + kDisableCc;
  // Instant recovery: undo a recent congestion response that the
  // (now-evident) route change most likely caused.
  if (have_snapshot_ &&
      sim().now() - snap_time_ <= kInstantRecovery) {
    ++instant_recoveries_;
    set_ssthresh(snap_ssthresh_);
    set_cwnd(snap_cwnd_);
    exit_recovery_bookkeeping();
    have_snapshot_ = false;
  }
}

void TcpDoor::on_old_ack(const TcpHeader&) {
  // A regressed non-duplicate ACK can only arrive via reordering.
  on_ooo_detected();
}

void TcpDoor::on_new_ack(const TcpHeader& h, std::int64_t newly_acked) {
  last_dup_seq_ = 0;
  TcpNewReno::on_new_ack(h, newly_acked);
}

void TcpDoor::on_dup_ack(const TcpHeader& h) {
  // Reordered duplicate ACKs: the stream sequence runs backwards.
  if (h.dup_seq != 0 && last_dup_seq_ != 0 && h.dup_seq < last_dup_seq_) {
    on_ooo_detected();
  }
  if (h.dup_seq != 0) last_dup_seq_ = std::max(last_dup_seq_, h.dup_seq);
  TcpNewReno::on_dup_ack(h);
}

void TcpDoor::on_loss(const TcpHeader& h) {
  // Congestion response suppressed: the base retransmits, the window stays.
  if (cc_disabled()) return;
  // About to take a congestion action: snapshot so a subsequent OOO event
  // can undo it.
  have_snapshot_ = true;
  snap_cwnd_ = cwnd();
  snap_ssthresh_ = ssthresh();
  snap_time_ = sim().now();
  TcpNewReno::on_loss(h);
}

}  // namespace muzha
