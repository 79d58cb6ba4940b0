// Packet-based TCP sender base class (NS-2 "one-way TCP" model).
//
// Sequence numbers count fixed-size segments; the sink cumulatively ACKs the
// highest in-order segment. The base class owns the send window, RTO timer
// (Jacobson estimation, Karn's rule, exponential backoff), duplicate-ACK
// detection and retransmission machinery; variants override the three hooks
// (on_new_ack / on_dup_ack / on_timeout) to implement their congestion
// control; the Reno family (tcp_variants.h, src/relwork) shares TcpReno's
// fast retransmit and overrides only its loss response. The `window` config
// field is NS-2's `window_` — the advertised window cap the paper sweeps in
// Simulation 2.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "net/agent.h"
#include "net/node.h"
#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "sim/units.h"
#include "tcp/rto_estimator.h"

namespace muzha {

struct TcpConfig {
  NodeId dst = kInvalidNodeId;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  FlowId flow = 0;
  // IP datagram size of a data segment: 1460 B payload + 40 B TCP/IP header.
  Bytes packet_size = Bytes(1500);
  // Advertised window cap in segments (NS-2 `window_`).
  int window = 32;
};

// Duplicate ACKs that trigger fast retransmit (RFC 5681).
inline constexpr int kDupAckThreshold = 3;

// Coarse congestion-control phase, derived from (in_recovery, cwnd vs
// ssthresh). Variants without a slow-start phase (Muzha parks ssthresh at 0)
// report kCongestionAvoidance whenever they are not in recovery.
enum class TcpPhase : std::uint8_t {
  kSlowStart,
  kCongestionAvoidance,
  kFastRecovery,
};

const char* tcp_phase_name(TcpPhase p);

class TcpAgent : public Agent {
 public:
  TcpAgent(Simulator& sim, Node& node, TcpConfig cfg);
  ~TcpAgent() override = default;

  // Registers on the node's source port and begins transmitting.
  void start();
  void receive(PacketPtr pkt) final;

  // --- Observability ------------------------------------------------------
  Segments cwnd() const { return cwnd_; }
  Segments ssthresh() const { return ssthresh_; }
  std::int64_t highest_ack() const { return highest_ack_; }
  std::int64_t next_seq() const { return t_seqno_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t timeouts() const { return timeouts_; }
  const RtoEstimator& rto_estimator() const { return rto_; }
  const TcpConfig& config() const { return cfg_; }
  bool in_recovery() const { return in_recovery_; }
  int dupacks() const { return dupacks_; }
  TcpPhase phase() const {
    if (in_recovery_) return TcpPhase::kFastRecovery;
    return cwnd_ < ssthresh_ ? TcpPhase::kSlowStart
                             : TcpPhase::kCongestionAvoidance;
  }

  // Called on every congestion-window change (CWND traces, Figs 5.2-5.7).
  using CwndListener = std::function<void(SimTime, double)>;
  void set_cwnd_listener(CwndListener cb) { cwnd_listener_ = std::move(cb); }

 protected:
  // --- Variant hooks ------------------------------------------------------
  // New cumulative ACK advancing highest_ack (already updated). `newly_acked`
  // is the number of segments this ACK acknowledged.
  virtual void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) = 0;
  // Duplicate ACK number `dupacks()` for highest_ack().
  virtual void on_dup_ack(const TcpHeader& h) = 0;
  // ACK older than the current cumulative point (reordered in the network).
  // Default: ignore. TCP-DOOR uses this to detect out-of-order delivery.
  virtual void on_old_ack(const TcpHeader& h) { (void)h; }
  // Retransmission timeout; base already backed off the RTO and counted the
  // timeout. Default: restart_after_timeout(max(cwnd / 2, 2)).
  virtual void on_timeout();

  // --- Services for variants ----------------------------------------------
  // Sends new segments while the effective window allows.
  void send_much();
  // Retransmits one segment.
  void retransmit(std::int64_t seq);
  void set_cwnd(Segments v);
  void set_ssthresh(Segments v) { ssthresh_ = v; }
  int effective_window() const;
  std::int64_t outstanding() const { return t_seqno_ - 1 - highest_ack_; }
  // Standard slow-start / congestion-avoidance growth (Reno-style opencwnd).
  void open_cwnd();
  void enter_recovery_bookkeeping() {
    in_recovery_ = true;
    recover_ = t_seqno_ - 1;
  }
  void exit_recovery_bookkeeping() { in_recovery_ = false; }
  std::int64_t recover_point() const { return recover_; }
  bool seq_was_retransmitted(std::int64_t s) const {
    return retx_seqs_.find(s) != retx_seqs_.end();
  }
  Simulator& sim() { return sim_; }

  // Restarts the retransmission timer if data is outstanding, else stops it.
  void manage_rtx_timer();

  // Rolls the send sequence back to the first unacknowledged segment and
  // retransmits it (go-back-N after a timeout).
  void go_back_n();

  // Classic timeout restart: the given ssthresh, a one-segment window, out
  // of recovery, go-back-N.
  void restart_after_timeout(Segments ssthresh);

  // Smoothed RTT, or 100 ms before the first sample: paces the once-per-RTT
  // reactions to router marks and seeds Jersey's rate estimate.
  Seconds srtt_or_default() const {
    return rto_.has_sample() ? to_seconds(rto_.srtt()) : Seconds(0.1);
  }

 private:
  void output(std::int64_t seq, bool is_retx);
  void handle_timeout();

  Simulator& sim_;
  Node& node_;
  TcpConfig cfg_;

  Segments cwnd_ = Segments(1.0);
  Segments ssthresh_ = Segments(64.0);
  std::int64_t t_seqno_ = 0;      // next new segment to send
  std::int64_t highest_ack_ = -1;  // highest cumulatively ACKed segment
  std::int64_t maxseq_ = -1;       // highest segment ever sent
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = -1;

  RtoEstimator rto_;
  Timer rtx_timer_;

  // Karn's rule: segments that were retransmitted are never RTT-sampled.
  // Ordered set: receive() prunes it with std::erase_if, and erasure order
  // must not depend on hash-bucket layout.
  std::set<std::int64_t> retx_seqs_;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
  bool started_ = false;

  CwndListener cwnd_listener_;
};

}  // namespace muzha
