#include "tcp/tcp_variants.h"

#include <algorithm>

#include "pkt/packet.h"
#include "sim/units.h"
#include "tcp/tcp_agent.h"

namespace muzha {

// ---------------------------------------------------------------------------
// Tahoe
// ---------------------------------------------------------------------------

void TcpTahoe::on_new_ack(const TcpHeader&, std::int64_t) {
  exit_recovery_bookkeeping();
  open_cwnd();
}

void TcpTahoe::on_dup_ack(const TcpHeader&) {
  if (in_recovery() || dupacks() != kDupAckThreshold) return;
  // Fast retransmit, then restart from slow start (no fast recovery).
  set_ssthresh(std::max(cwnd() / 2.0, Segments(2.0)));
  set_cwnd(Segments(1.0));
  enter_recovery_bookkeeping();
  retransmit(highest_ack() + 1);
}

// ---------------------------------------------------------------------------
// Reno
// ---------------------------------------------------------------------------

void TcpReno::on_new_ack(const TcpHeader&, std::int64_t) {
  if (in_recovery()) {
    // Any new ACK ends Reno's recovery; deflate to ssthresh.
    exit_recovery_bookkeeping();
    set_cwnd(ssthresh());
    return;
  }
  open_cwnd();
}

void TcpReno::on_dup_ack(const TcpHeader& h) {
  if (in_recovery()) {
    // Window inflation: each dup ACK signals a segment left the network.
    set_cwnd(cwnd() + Segments(1.0));
    send_much();
    return;
  }
  if (dupacks() != kDupAckThreshold) return;
  on_loss(h);
  enter_recovery_bookkeeping();
  retransmit(highest_ack() + 1);
}

void TcpReno::on_loss(const TcpHeader&) {
  set_ssthresh(std::max(cwnd() / 2.0, Segments(2.0)));
  set_cwnd(ssthresh() + Segments(static_cast<double>(kDupAckThreshold)));
}

// ---------------------------------------------------------------------------
// NewReno
// ---------------------------------------------------------------------------

void TcpNewReno::on_new_ack(const TcpHeader& h, std::int64_t newly_acked) {
  if (in_recovery()) {
    if (h.seqno >= recover_point()) {
      // Full ACK: recovery complete.
      exit_recovery_bookkeeping();
      set_cwnd(ssthresh());
      return;
    }
    // Partial ACK: the next hole is also lost; retransmit it immediately and
    // stay in recovery (RFC 3782), deflating by the amount acknowledged.
    retransmit(h.seqno + 1);
    set_cwnd(std::max(
        Segments(cwnd().value() - static_cast<double>(newly_acked) + 1.0),
        Segments(1.0)));
    return;
  }
  open_cwnd();
}

// ---------------------------------------------------------------------------
// SACK
// ---------------------------------------------------------------------------

void TcpSack::absorb_sacks(const TcpHeader& h) {
  for (const SackBlock& b : h.sacks) {
    for (std::int64_t s = b.begin; s < b.end; ++s) {
      if (s > highest_ack()) sacked_.insert(s);
    }
  }
  // Garbage-collect below the cumulative ACK.
  while (!sacked_.empty() && *sacked_.begin() <= highest_ack()) {
    sacked_.erase(sacked_.begin());
  }
}

std::int64_t TcpSack::next_hole(std::int64_t above) const {
  for (std::int64_t s = std::max(above, highest_ack() + 1);
       s <= recover_point(); ++s) {
    if (sacked_.find(s) == sacked_.end()) return s;
  }
  return -1;
}

void TcpSack::try_to_send() {
  while (pipe_ < cwnd().value()) {
    std::int64_t hole = next_hole(last_hole_sent_ + 1);
    if (hole >= 0) {
      last_hole_sent_ = hole;
      retransmit(hole);
      pipe_ += 1.0;
      continue;
    }
    // No holes left: send new data if the advertised window allows.
    std::int64_t before = next_seq();
    if (outstanding() >= effective_window()) break;
    send_much();
    if (next_seq() == before) break;
    pipe_ += static_cast<double>(next_seq() - before);
  }
}

void TcpSack::on_new_ack(const TcpHeader& h, std::int64_t newly_acked) {
  absorb_sacks(h);
  if (in_recovery()) {
    if (h.seqno >= recover_point()) {
      exit_recovery_bookkeeping();
      sacked_.clear();
      pipe_ = 0;
      last_hole_sent_ = -1;
      set_cwnd(ssthresh());
      return;
    }
    // Partial ACK: the retransmission and the original both left the pipe.
    pipe_ = std::max(0.0, pipe_ - 2.0);
    (void)newly_acked;
    try_to_send();
    return;
  }
  open_cwnd();
}

void TcpSack::on_dup_ack(const TcpHeader& h) {
  absorb_sacks(h);
  if (in_recovery()) {
    pipe_ = std::max(0.0, pipe_ - 1.0);
    try_to_send();
    return;
  }
  if (dupacks() != kDupAckThreshold) return;
  set_ssthresh(std::max(cwnd() / 2.0, Segments(2.0)));
  enter_recovery_bookkeeping();
  set_cwnd(ssthresh());
  // Pipe: segments in flight minus those known to have left the network.
  pipe_ = std::max(
      0.0, static_cast<double>(outstanding()) -
               static_cast<double>(sacked_.size()) - 1.0);
  last_hole_sent_ = -1;
  try_to_send();
}

void TcpSack::on_timeout() {
  sacked_.clear();
  pipe_ = 0;
  last_hole_sent_ = -1;
  TcpAgent::on_timeout();
}

}  // namespace muzha
