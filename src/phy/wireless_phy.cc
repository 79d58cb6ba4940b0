#include "phy/wireless_phy.h"

#include <algorithm>

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
  for (const Record& record : records_) {
    if (record.signal == 0) {
      sched.schedule(record.key, [this, airtime = record.airtime,
                                  dist = record.dist] {
        signal_start(nullptr, false, airtime, dist);
      });
    } else {
      sched.schedule(record.key, [this, id = record.signal] { signal_end(id); });
    }
  }
  records_.clear();
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
  while (!records_.empty() && sched.passed(records_.back().key)) {
    const Record record = records_.back();
    records_.pop_back();
    if (record.signal == 0) {
      // What signal_start() does for a signal it cannot lock onto, at the
      // start's own time.
      interfere(record.dist);
      if (!busy()) book_busy(record.key.time);
      const std::uint64_t id = next_signal_seq_++;
      active_signals_.push_back({id, record.dist});
      file_record({Scheduler::follow(record.key, record.airtime), id, {}, {}});
    } else {
      // What signal_end() does for a signal it is not decoding, at the
      // end's own time.
      remove_signal(record.signal);
      if (!busy()) book_idle(record.key.time);
    }
  }
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
  active_signals_.push_back({seq, tx_dist});
  update_carrier(was_busy);
  if (needs_idle_edges_ || seq == decoding_seq_) {
    sim_.scheduler().schedule(end, [this, seq] { signal_end(seq); });
  } else {
    file_record({end, seq, {}, {}});
  }
}

void WirelessPhy::remove_signal(std::uint64_t signal_seq) {
  auto it = std::find_if(
      active_signals_.begin(), active_signals_.end(),
      [signal_seq](const Signal& signal) { return signal.id == signal_seq; });
  MUZHA_ASSERT(it != active_signals_.end(),
               "signal_end without matching start");
  *it = active_signals_.back();  // swap-pop; order is irrelevant
  active_signals_.pop_back();
}

void WirelessPhy::signal_end(std::uint64_t signal_seq) {
  bool was_busy = carrier_busy();
  remove_signal(signal_seq);
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
