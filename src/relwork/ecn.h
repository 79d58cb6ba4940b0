// RED + ECN: the standardized single-bit router-assisted mechanisms the
// paper contrasts DRAI against (Sec. 3.2: "these two mechanisms provide only
// ... single-bit congestion-status information ... their performance gain is
// limited").
//
// RedEcnMarker implements the RED averaging/marking rules (Floyd & Jacobson
// 1993) as a DraiSource whose rate recommendation is always "maximum" — it
// conveys no multi-level advice, only the probabilistic single-bit mark.
// TcpNewRenoEcn is NewReno plus the standard ECN reaction: at most once per
// RTT, an echoed mark halves the window as if a packet had been lost, but
// without the loss.
//
// The ecn_vs_drai figure of bench/paper_figures pits NewReno+RED/ECN against
// Muzha's DRAI to reproduce the paper's argument for richer feedback.
#pragma once

#include "net/agent.h"
#include "net/wireless_device.h"
#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "tcp/tcp_variants.h"

namespace muzha {

// Its averaging weight and thresholds are constants in ecn.cc.
class RedEcnMarker final : public DraiSource {
 public:
  RedEcnMarker(Simulator& sim, WirelessDevice& device);

  // DraiSource: a single-bit router never gives rate advice, so the DRAI
  // is always "maximum"; the mark is should_mark()'s.
  DraiStamp stamp() override { return {kDraiAggressiveAccel, should_mark()}; }
  // RED's decision for one arriving packet: updates the average queue and
  // may draw from the simulation RNG.
  bool should_mark();

  double avg_queue() const { return avg_; }
  std::uint64_t marks() const { return marks_; }

 private:
  Simulator& sim_;
  WirelessDevice& device_;
  double avg_ = 0.0;
  int count_since_mark_ = -1;  // RED's "count" for uniformized marking
  std::uint64_t marks_ = 0;
};

// NewReno with the RFC 3168 congestion response to echoed ECN marks.
class TcpNewRenoEcn : public TcpNewReno {
 public:
  using TcpNewReno::TcpNewReno;

  std::uint64_t ecn_reductions() const { return ecn_reductions_; }

 protected:
  void on_new_ack(const TcpHeader& h, std::int64_t newly_acked) override;

 private:
  SimTime next_reaction_allowed_;
  std::uint64_t ecn_reductions_ = 0;
};

}  // namespace muzha
