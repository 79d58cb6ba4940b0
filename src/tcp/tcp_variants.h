// Baseline TCP congestion-control variants the paper compares against:
// Tahoe, Reno, NewReno and SACK. Vegas lives in tcp_vegas.h; the paper's
// contribution (TCP Muzha) lives in src/core.
#pragma once

#include <set>

#include "pkt/packet.h"
#include "tcp/tcp_agent.h"

namespace muzha {

// TCP Tahoe: fast retransmit, then slow-start restart (no fast recovery).
class TcpTahoe : public TcpAgent {
 public:
  using TcpAgent::TcpAgent;

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
  void on_dup_ack(const TcpHeader& h) override;
};

// TCP Reno: fast retransmit + fast recovery (window inflation during
// recovery, deflation to ssthresh on the recovery-exiting ACK).
//
// on_dup_ack is the one fast-retransmit path of the Reno family: at the
// threshold it asks on_loss for the window, then enters recovery and
// resends the first unacknowledged segment.
class TcpReno : public TcpAgent {
 public:
  using TcpAgent::TcpAgent;

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
  void on_dup_ack(const TcpHeader& h) override;
  // Window response to the loss signalled by the threshold dup ACK `h`.
  // Default: halve ssthresh, cwnd = ssthresh + threshold.
  virtual void on_loss(const TcpHeader& h);
};

// TCP NewReno (RFC 3782): stays in fast recovery across partial ACKs,
// retransmitting one hole per partial ACK, until the recovery point is
// cumulatively acknowledged.
class TcpNewReno : public TcpReno {
 public:
  using TcpReno::TcpReno;

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
};

// TCP SACK: scoreboard of selectively-acknowledged segments; during recovery
// retransmits holes while the pipe estimate allows (RFC 3517 style).
class TcpSack : public TcpAgent {
 public:
  using TcpAgent::TcpAgent;

  std::size_t scoreboard_size() const { return sacked_.size(); }

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;
  void on_dup_ack(const TcpHeader& h) override;
  void on_timeout() override;

 private:
  void absorb_sacks(const TcpHeader& h);
  // Lowest unsacked segment in (highest_ack, recover_], or -1.
  std::int64_t next_hole(std::int64_t above) const;
  void try_to_send();

  std::set<std::int64_t> sacked_;
  double pipe_ = 0;
  std::int64_t last_hole_sent_ = -1;
};

}  // namespace muzha
