#include "phy/wireless_phy.h"

#include <algorithm>
#include <cstddef>

#include "phy/channel.h"
#include "phy/frame_trace.h"
#include "phy/phy_params.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

WirelessPhy::WirelessPhy(Simulator& sim, Channel& channel, NodeId id,
                         Position pos)
    : sim_(sim), channel_(channel), id_(id), pos_(pos) {
  channel_.attach(*this);
}

SimTime WirelessPhy::tx_duration(Bytes total, bool basic_rate) const {
  const PhyParams& p = channel_.params();
  // Rates are integral bit/s in every deployed configuration; the integer
  // ceil-division below is exact and must stay exact.
  std::uint64_t rate = static_cast<std::uint64_t>(
      (basic_rate ? p.basic_rate : p.data_rate).value());
  // bits * 1e9 / rate nanoseconds, rounded up.
  std::uint64_t bits = static_cast<std::uint64_t>(to_bits(total).value());
  std::int64_t ns = static_cast<std::int64_t>((bits * 1'000'000'000ull + rate - 1) / rate);
  return p.plcp_overhead + SimTime::from_ns(ns);
}

void WirelessPhy::schedule_records() {
  expire_records();
  for (Signal& signal : active_signals_) {
    if (!signal.record) continue;
    signal.record = false;
    sim_.scheduler().schedule(signal.end,
                              [this, id = signal.id] { signal_end(id); });
  }
  earliest_record_end_ = SimTime::max();
}

SimTime WirelessPhy::cumulative_busy_time() {
  expire_records();
  return busy() ? busy_accum_ + (sim_.now() - busy_since_) : busy_accum_;
}

void WirelessPhy::drop_passed_records() {
  const Scheduler& sched = sim_.scheduler();
  bool expired = false;
  SimTime last_end;
  SimTime earliest = SimTime::max();
  for (std::size_t i = 0; i < active_signals_.size();) {
    const Signal& signal = active_signals_[i];
    if (!signal.record) {
      ++i;
    } else if (sched.passed(signal.end)) {
      expired = true;
      last_end = std::max(last_end, signal.end.time);
      active_signals_[i] = active_signals_.back();  // swap-pop
      active_signals_.pop_back();
    } else {
      earliest = std::min(earliest, signal.end.time);
      ++i;
    }
  }
  earliest_record_end_ = earliest;
  // The carrier stayed busy up to the latest expired end: every signal start
  // is an event here, and each one expires records first.
  if (expired && !busy()) busy_accum_ += last_end - busy_since_;
}

void WirelessPhy::start_tx(PacketPtr pkt, bool basic_rate) {
  MUZHA_ASSERT(!tx_active_, "PHY is half-duplex: cannot start TX during TX");
  bool was_busy = carrier_busy();
  // Transmitting while decoding destroys the reception (half duplex).
  if (decoding_seq_ != 0) {
    decoding_corrupted_ = true;
    ++collisions_;
  }
  SimTime dur = tx_duration(
      Bytes(mac_frame_bytes(pkt->mac.type, pkt->size_bytes)), basic_rate);
  tx_active_ = true;
  ++frames_sent_;
  if (FrameTrace* trace = channel_.frame_trace()) {
    trace->tx_start(sim_.now(), id_, pkt->mac.type, pkt->mac.seq);
  }
  update_carrier(was_busy);
  channel_.transmit(*this, *pkt, dur);
  sim_.schedule_in(dur, [this] {
    bool busy_before = carrier_busy();
    tx_active_ = false;
    // Inform the MAC of TX completion *before* the carrier-idle transition:
    // the MAC must update its exchange state (e.g. start awaiting the ACK)
    // before any idle notification can restart contention.
    if (on_tx_done_) on_tx_done_();
    update_carrier(busy_before);
  });
}

void WirelessPhy::signal_start(PacketPtr pkt, bool pre_corrupted,
                               SimTime duration, Meters tx_dist) {
  bool was_busy = carrier_busy();
  std::uint64_t seq = next_signal_seq_++;
  double ratio = channel_.params().capture_distance_ratio;
  // Lock onto a decodable frame when not transmitting or already decoding,
  // provided every signal currently on the air is weak enough to be
  // captured over (all at least `ratio` times farther than the new frame's
  // transmitter). A quiet medium is the trivial case.
  bool can_lock = !tx_active_ && decoding_seq_ == 0 && pkt != nullptr;
  if (can_lock) {
    for (const Signal& signal : active_signals_) {
      if (signal.dist < tx_dist * ratio) {
        can_lock = false;
        break;
      }
    }
  }
  if (can_lock) {
    decoding_seq_ = seq;
    decoding_pkt_ = std::move(pkt);
    decoding_corrupted_ = pre_corrupted;
    decoding_dist_ = tx_dist;
  } else if (decoding_seq_ != 0 && !decoding_corrupted_) {
    // Capture effect: a sufficiently distant (weak) interferer does not
    // destroy the frame being decoded.
    if (tx_dist < decoding_dist_ * ratio) {
      decoding_corrupted_ = true;
      ++collisions_;
    }
  }
  active_signals_.push_back({seq, tx_dist, {}, false});
  update_carrier(was_busy);
  // Record or event, the end's seq is taken here, after the carrier
  // callback, so every other event's seq is the same either way.
  if (needs_idle_edges_ || seq == decoding_seq_) {
    sim_.schedule_in(duration, [this, seq] { signal_end(seq); });
    return;
  }
  Signal& signal = active_signals_.back();
  MUZHA_DCHECK(signal.id == seq, "a carrier callback reordered the signals");
  signal.end = sim_.scheduler().defer(duration);
  signal.record = true;
  earliest_record_end_ = std::min(earliest_record_end_, signal.end.time);
}

void WirelessPhy::signal_end(std::uint64_t signal_seq) {
  bool was_busy = carrier_busy();
  auto it = std::find_if(
      active_signals_.begin(), active_signals_.end(),
      [signal_seq](const Signal& signal) { return signal.id == signal_seq; });
  MUZHA_ASSERT(it != active_signals_.end(),
               "signal_end without matching start");
  *it = active_signals_.back();  // swap-pop; order is irrelevant
  active_signals_.pop_back();
  if (signal_seq == decoding_seq_) {
    decoding_seq_ = 0;
    PacketPtr p = std::move(decoding_pkt_);
    bool corrupted = decoding_corrupted_ || tx_active_;
    decoding_corrupted_ = false;
    if (!corrupted) ++frames_received_ok_;
    if (FrameTrace* trace = channel_.frame_trace()) {
      trace->rx(sim_.now(), id_, corrupted);
    }
    if (on_rx_) on_rx_(corrupted ? nullptr : std::move(p), corrupted);
  }
  update_carrier(was_busy);
}

void WirelessPhy::update_carrier(bool was_busy) {
  bool now_busy = busy();
  if (now_busy == was_busy) return;
  if (now_busy) {
    busy_since_ = sim_.now();
  } else {
    busy_accum_ += sim_.now() - busy_since_;
  }
  if (on_channel_state_) on_channel_state_(now_busy);
}

}  // namespace muzha
