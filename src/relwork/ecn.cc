#include "relwork/ecn.h"

#include <algorithm>

#include "net/wireless_device.h"
#include "pkt/packet.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "tcp/tcp_variants.h"

namespace muzha {

namespace {
// Calibrated for low-rate 802.11 forwarders, whose IFQs hold a handful of
// packets on average with transient bursts (the wired-Internet defaults
// wq=0.002 / 5 / 15 average out those bursts and never mark).
constexpr double kWeight = 0.05;  // EWMA weight w_q
constexpr double kMinTh = 3.0;    // packets
constexpr double kMaxTh = 10.0;   // packets
constexpr double kMaxP = 0.2;     // marking probability at kMaxTh
}  // namespace

RedEcnMarker::RedEcnMarker(Simulator& sim, WirelessDevice& device)
    : sim_(sim), device_(device) {}

bool RedEcnMarker::should_mark() {
  // Per-packet average update (idle-period compensation omitted: in a
  // saturated wireless forwarder the queue is rarely idle long).
  double q = static_cast<double>(device_.queue().size());
  avg_ = (1.0 - kWeight) * avg_ + kWeight * q;

  if (avg_ < kMinTh) {
    count_since_mark_ = -1;
    return false;
  }
  if (avg_ >= kMaxTh) {
    count_since_mark_ = 0;
    ++marks_;
    return true;
  }
  // Linear marking probability, uniformized by the inter-mark count.
  ++count_since_mark_;
  double pb = kMaxP * (avg_ - kMinTh) / (kMaxTh - kMinTh);
  double pa = pb / std::max(1e-9, 1.0 - count_since_mark_ * pb);
  if (pa >= 1.0 || sim_.rng().chance(pa)) {
    count_since_mark_ = 0;
    ++marks_;
    return true;
  }
  return false;
}

void TcpNewRenoEcn::on_new_ack(const TcpHeader& h, std::int64_t newly_acked) {
  if (h.ce_echo && !in_recovery() && sim().now() >= next_reaction_allowed_) {
    // RFC 3168: react to marks as to loss, at most once per RTT, but
    // without retransmitting anything.
    ++ecn_reductions_;
    set_ssthresh(std::max(cwnd() / 2.0, Segments(2.0)));
    set_cwnd(ssthresh());
    next_reaction_allowed_ = sim().now() + to_sim_time(srtt_or_default());
    return;
  }
  TcpNewReno::on_new_ack(h, newly_acked);
}

}  // namespace muzha
