#include "relwork/adtcp.h"

#include <algorithm>
#include <cmath>

#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_variants.h"

namespace muzha {

namespace {

// Sliding sample window of the receiver metrics.
constexpr SimTime kWindow = SimTime::from_seconds(1.0);
// EWMA gain of the long-term IDD and STT baselines.
constexpr double kEwmaAlpha = 0.1;
// Classification thresholds: IDD and STT against their baselines, POR and
// PLR as fractions.
constexpr double kIddHighFactor = 2.0;
constexpr double kSttLowFactor = 0.5;
constexpr double kPorHigh = 0.15;
constexpr double kPlrHigh = 0.10;

}  // namespace

void AdtcpSink::receive(PacketPtr pkt) {
  if (pkt->has_tcp() && !pkt->tcp().is_ack) {
    update_metrics(*pkt);
    classify();
  }
  TcpSink::receive(std::move(pkt));
}

void AdtcpSink::update_metrics(const Packet& data) {
  SimTime now = sim().now();
  samples_.push_back({now, data.tcp().seqno, data.tcp().ts});
  max_seq_seen_ = std::max(max_seq_seen_, data.tcp().seqno);

  // Evict samples outside the sliding window.
  while (!samples_.empty() && now - samples_.front().arrival > kWindow) {
    samples_.pop_front();
  }
  if (samples_.size() < 2) return;

  // IDD: mean |arrival spacing - send spacing| over the window.
  double idd_sum = 0.0;
  int ooo = 0;
  std::int64_t min_seq = samples_.front().seq;
  std::int64_t max_seq = samples_.front().seq;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    double da = (samples_[i].arrival - samples_[i - 1].arrival).to_seconds();
    double ds = (samples_[i].sent - samples_[i - 1].sent).to_seconds();
    idd_sum += std::abs(da - ds);
    if (samples_[i].seq < samples_[i - 1].seq) ++ooo;
    min_seq = std::min(min_seq, samples_[i].seq);
    max_seq = std::max(max_seq, samples_[i].seq);
  }
  idd_short_ = idd_sum / static_cast<double>(samples_.size() - 1);

  // STT: packets per second over the window.
  double span =
      (samples_.back().arrival - samples_.front().arrival).to_seconds();
  stt_short_ = span > 0 ? static_cast<double>(samples_.size()) / span : 0.0;

  // POR: fraction of arrivals that went backwards in sequence.
  por_ = static_cast<double>(ooo) / static_cast<double>(samples_.size() - 1);

  // PLR: gap fraction in the window's sequence span.
  std::int64_t span_seqs = max_seq - min_seq + 1;
  plr_ = span_seqs > 0
             ? 1.0 - static_cast<double>(samples_.size()) /
                         static_cast<double>(span_seqs)
             : 0.0;
  if (plr_ < 0) plr_ = 0;

  // Long-term baselines.
  if (idd_long_ == 0.0) idd_long_ = idd_short_;
  if (stt_long_ == 0.0) stt_long_ = stt_short_;
  idd_long_ = kEwmaAlpha * idd_short_ + (1 - kEwmaAlpha) * idd_long_;
  stt_long_ = kEwmaAlpha * stt_short_ + (1 - kEwmaAlpha) * stt_long_;
}

void AdtcpSink::classify() {
  bool idd_high = idd_long_ > 0 && idd_short_ > kIddHighFactor * idd_long_;
  bool stt_low = stt_long_ > 0 && stt_short_ < kSttLowFactor * stt_long_;
  if (idd_high && stt_low) {
    state_ = AdtcpState::kCongestion;
  } else if (por_ > kPorHigh) {
    state_ = AdtcpState::kRouteChange;
  } else if (plr_ > kPlrHigh) {
    state_ = AdtcpState::kChannelError;
  } else {
    state_ = AdtcpState::kNormal;
  }
}

void AdtcpSink::customize_ack(TcpHeader& ack, const Packet&, bool) {
  ack.net_state = state_;
}

// ---------------------------------------------------------------------------

void AdtcpSender::on_new_ack(const TcpHeader& h, std::int64_t newly_acked) {
  last_state_ = h.net_state;
  TcpNewReno::on_new_ack(h, newly_acked);
}

void AdtcpSender::on_dup_ack(const TcpHeader& h) {
  last_state_ = h.net_state;
  TcpNewReno::on_dup_ack(h);
}

void AdtcpSender::on_loss(const TcpHeader& h) {
  if (h.net_state != AdtcpState::kCongestion) {
    // Loss without congestion evidence: retransmit at the current rate.
    ++non_congestion_losses_;
    return;
  }
  TcpNewReno::on_loss(h);
}

void AdtcpSender::on_timeout() {
  if (last_state_ == AdtcpState::kRouteChange) {
    // Freeze through the route change: keep the window, just probe.
    ++non_congestion_losses_;
    exit_recovery_bookkeeping();
    go_back_n();
    return;
  }
  TcpNewReno::on_timeout();
}

}  // namespace muzha
