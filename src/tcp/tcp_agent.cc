#include "tcp/tcp_agent.h"

#include <algorithm>

#include "net/node.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

const char* tcp_phase_name(TcpPhase p) {
  switch (p) {
    case TcpPhase::kSlowStart:
      return "SlowStart";
    case TcpPhase::kCongestionAvoidance:
      return "CongestionAvoidance";
    case TcpPhase::kFastRecovery:
      return "FastRecovery";
  }
  return "?";
}

TcpAgent::TcpAgent(Simulator& sim, Node& node, TcpConfig cfg)
    : sim_(sim),
      node_(node),
      cfg_(cfg),
      rtx_timer_(sim, [this] { handle_timeout(); }) {
  MUZHA_ASSERT(cfg_.dst != kInvalidNodeId, "TCP agent needs a destination");
  MUZHA_ASSERT(cfg_.window >= 1, "window_ must be at least 1");
}

void TcpAgent::start() {
  if (started_) return;
  started_ = true;
  node_.register_agent(cfg_.src_port, *this);
  send_much();
}

int TcpAgent::effective_window() const {
  int w = static_cast<int>(cwnd_.value());
  if (w < 1) w = 1;
  return std::min(w, cfg_.window);
}

void TcpAgent::set_cwnd(Segments v) {
  if (v < Segments(1.0)) v = Segments(1.0);
  cwnd_ = v;
  if (cwnd_listener_) cwnd_listener_(sim_.now(), cwnd_.value());
}

void TcpAgent::open_cwnd() {
  if (cwnd_ < ssthresh_) {
    set_cwnd(cwnd_ + Segments(1.0));  // slow start: +1 per ACK
  } else {
    // Congestion avoidance: +1 per RTT (1/cwnd per ACK).
    set_cwnd(Segments(cwnd_.value() + 1.0 / cwnd_.value()));
  }
}

void TcpAgent::send_much() {
  while (t_seqno_ <= highest_ack_ + effective_window()) {
    output(t_seqno_, /*is_retx=*/false);
    ++t_seqno_;
  }
}

void TcpAgent::retransmit(std::int64_t seq) { output(seq, /*is_retx=*/true); }

void TcpAgent::output(std::int64_t seq, bool is_retx) {
  // Any re-send of an already-transmitted segment is a retransmission — both
  // explicit fast retransmits and go-back-N re-sends after a timeout.
  if (is_retx || seq <= maxseq_) {
    ++retransmissions_;
    retx_seqs_.insert(seq);
  }
  PacketPtr p = node_.new_packet(
      cfg_.dst, IpProto::kTcp,
      static_cast<std::uint32_t>(cfg_.packet_size.value()));
  TcpHeader h;
  h.flow = cfg_.flow;
  h.src_port = cfg_.src_port;
  h.dst_port = cfg_.dst_port;
  h.is_ack = false;
  h.seqno = seq;
  h.ts = sim_.now();
  p->l4 = h;
  ++packets_sent_;
  maxseq_ = std::max(maxseq_, seq);
  if (!rtx_timer_.pending()) rtx_timer_.schedule_in(rto_.rto());
  node_.send(std::move(p));
}

void TcpAgent::manage_rtx_timer() {
  if (outstanding() > 0) {
    rtx_timer_.schedule_in(rto_.rto());
  } else {
    rtx_timer_.cancel();
  }
}

void TcpAgent::receive(PacketPtr pkt) {
  MUZHA_ASSERT(pkt->has_tcp(), "TCP agent received non-TCP packet");
  const TcpHeader& h = pkt->tcp();
  if (!h.is_ack) return;  // we are a pure sender

  if (h.seqno > highest_ack_) {
    std::int64_t newly_acked = h.seqno - highest_ack_;
    highest_ack_ = h.seqno;
    dupacks_ = 0;

    // Karn-safe RTT sample: the echoed timestamp belongs to the data segment
    // that triggered this ACK; skip if that segment was ever retransmitted.
    if (retx_seqs_.find(h.seqno) == retx_seqs_.end() &&
        h.ts_echo > SimTime::zero()) {
      rto_.sample(sim_.now() - h.ts_echo);
    }
    // Bound the Karn set: acked segments can never be sampled again.
    if (retx_seqs_.size() > 1024) {
      std::erase_if(retx_seqs_,
                    [this](std::int64_t s) { return s <= highest_ack_; });
    }
    // Forward progress ends any exponential-backoff series: the next RTO is
    // taken from the estimate again, not from the doubled value.
    rto_.reset_backoff();

    on_new_ack(h, newly_acked);
    manage_rtx_timer();
    send_much();
    return;
  }

  if (h.seqno == highest_ack_) {
    ++dupacks_;
    on_dup_ack(h);
    return;
  }
  on_old_ack(h);
}

void TcpAgent::handle_timeout() {
  // Window emptied by ACK reordering; nothing to recover.
  if (outstanding() <= 0) return;
  ++timeouts_;
  rto_.backoff();
  dupacks_ = 0;
  on_timeout();
  rtx_timer_.schedule_in(rto_.rto());
}

void TcpAgent::go_back_n() {
  t_seqno_ = highest_ack_ + 1;
  retransmit(t_seqno_);
  ++t_seqno_;
}

void TcpAgent::restart_after_timeout(Segments ssthresh) {
  ssthresh_ = ssthresh;
  set_cwnd(Segments(1.0));
  exit_recovery_bookkeeping();
  go_back_n();
}

void TcpAgent::on_timeout() {
  restart_after_timeout(std::max(cwnd_ / 2.0, Segments(2.0)));
}

}  // namespace muzha
