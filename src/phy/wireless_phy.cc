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
  catch_up();
  Scheduler& sched = sim_.scheduler();
  for (const PendingStart& start : pending_starts_) {
    sched.schedule(start.key,
                   [this, duration = start.duration, dist = start.dist] {
                     signal_start(nullptr, false, duration, dist);
                   });
  }
  pending_starts_.clear();
  for (Signal& signal : active_signals_) {
    if (!signal.record) continue;
    signal.record = false;
    sched.schedule(signal.end, [this, id = signal.id] { signal_end(id); });
  }
  earliest_due_ = SimTime::max();
}

SimTime WirelessPhy::cumulative_busy_time() {
  catch_up();
  return booked_busy_total(sim_.now());
}

void WirelessPhy::set_busy_sampler(SimTime interval, BusySampleCallback cb) {
  MUZHA_ASSERT(!on_busy_sample_, "a PHY takes one busy sampler");
  MUZHA_ASSERT(interval > SimTime::zero(),
               "busy sample interval must be positive");
  on_busy_sample_ = std::move(cb);
  sample_interval_ = interval;
  next_sample_ = Scheduler::last_at(sim_.now() + interval, interval);
}

void WirelessPhy::clear_busy_sampler() {
  on_busy_sample_ = nullptr;
  next_sample_.time = SimTime::max();
}

void WirelessPhy::fold_passed_samples() {
  catch_up();
  const Scheduler& sched = sim_.scheduler();
  while (sched.passed(next_sample_)) fold_sample();
}

void WirelessPhy::fold_sample() {
  const SimTime t = next_sample_.time;
  MUZHA_DCHECK(!busy_booked_ || t >= busy_since_,
               "a sample boundary before the last booked change");
  on_busy_sample_(booked_busy_total(t));
  next_sample_.time = t + sample_interval_;
}

void WirelessPhy::apply_passed() {
  const Scheduler& sched = sim_.scheduler();
  // The passed starts in key order, each after the record ends before it.
  for (;;) {
    const std::size_t n = pending_starts_.size();
    std::size_t first = n;
    for (std::size_t i = 0; i < n; ++i) {
      const Scheduler::Key& key = pending_starts_[i].key;
      if (sched.passed(key) &&
          (first == n || Scheduler::earlier(key, pending_starts_[first].key))) {
        first = i;
      }
    }
    if (first == n) break;
    const PendingStart start = pending_starts_[first];
    pending_starts_[first] = pending_starts_.back();  // swap-pop
    pending_starts_.pop_back();
    drop_records_before(start.key);
    // What signal_start() does for a signal it cannot lock onto, at the
    // start's own time.
    interfere(start.dist);
    if (!busy()) book_busy(start.key.time);
    active_signals_.push_back({next_signal_seq_++, start.dist,
                               Scheduler::follow(start.key, start.duration),
                               true});
  }
  drop_records_before(sched.running());
  SimTime earliest = SimTime::max();
  for (const PendingStart& start : pending_starts_) {
    earliest = std::min(earliest, start.key.time);
  }
  for (const Signal& signal : active_signals_) {
    if (signal.record) earliest = std::min(earliest, signal.end.time);
  }
  earliest_due_ = earliest;
}

void WirelessPhy::drop_records_before(const Scheduler::Key& key) {
  bool expired = false;
  SimTime last_end;
  for (std::size_t i = 0; i < active_signals_.size();) {
    const Signal& signal = active_signals_[i];
    if (signal.record && Scheduler::earlier(signal.end, key)) {
      expired = true;
      last_end = std::max(last_end, signal.end.time);
      active_signals_[i] = active_signals_.back();  // swap-pop
      active_signals_.pop_back();
    } else {
      ++i;
    }
  }
  // The carrier stayed busy up to the latest expired end: every record
  // dropped here was on the air when the PHY last changed, and no start
  // came in between.
  if (expired && !busy()) book_idle(last_end);
}

void WirelessPhy::interfere(Meters dist) {
  // Capture effect: a sufficiently distant (weak) interferer does not
  // destroy the frame being decoded.
  if (decoding_seq_ != 0 && !decoding_corrupted_ &&
      dist < decoding_dist_ * channel_.params().capture_distance_ratio) {
    decoding_corrupted_ = true;
    ++collisions_;
  }
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
  } else {
    interfere(tx_dist);
  }
  const Scheduler::Key end =
      Scheduler::follow(sim_.scheduler().running(), duration);
  active_signals_.push_back({seq, tx_dist, end, false});
  update_carrier(was_busy);
  if (needs_idle_edges_ || seq == decoding_seq_) {
    sim_.scheduler().schedule(end, [this, seq] { signal_end(seq); });
    return;
  }
  Signal& signal = active_signals_.back();
  MUZHA_DCHECK(signal.id == seq, "a carrier callback reordered the signals");
  signal.record = true;
  earliest_due_ = std::min(earliest_due_, end.time);
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
  MUZHA_DCHECK(was_busy == busy_booked_,
               "a carrier edge reported from a state that was never booked");
  bool now_busy = busy();
  if (now_busy == was_busy) return;
  if (now_busy) {
    book_busy(sim_.now());
  } else {
    book_idle(sim_.now());
  }
  if (on_channel_state_) on_channel_state_(now_busy);
}

}  // namespace muzha
