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
  // Rates are integral bit/s; the integer ceil-division below is exact and
  // must stay exact.
  std::uint64_t rate = static_cast<std::uint64_t>(
      (basic_rate ? PhyParams::basic_rate : PhyParams::data_rate).value());
  // bits * 1e9 / rate nanoseconds, rounded up.
  std::uint64_t bits = static_cast<std::uint64_t>(to_bits(total).value());
  std::int64_t ns = static_cast<std::int64_t>((bits * 1'000'000'000ull + rate - 1) / rate);
  return PhyParams::plcp_overhead + SimTime::from_ns(ns);
}

void WirelessPhy::schedule_records() {
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
    // The edge's own transition at its own time. It reports no edge: a
    // record exists only while the owner acts on none.
    if (record.signal == 0) {
      begin_signal(record.key, nullptr, false, record.airtime, record.dist);
    } else {
      end_signal(record.key.time, record.signal);
    }
  }
}

void WirelessPhy::start_tx(PacketPtr pkt, bool basic_rate) {
  MUZHA_ASSERT(!tx_active_, "PHY is half-duplex: cannot start TX during TX");
  catch_up();
  // Transmitting while decoding destroys the reception (half duplex). As in
  // begin_signal's capture check, only an intact reception counts.
  if (decoding_seq_ != 0) {
    if (!decoding_corrupted_) ++collisions_;
    decoding_corrupted_ = true;
  }
  SimTime dur = tx_duration(
      Bytes(mac_frame_bytes(pkt->mac.type, pkt->size_bytes)), basic_rate);
  tx_active_ = true;
  ++frames_sent_;
  if (FrameTrace* trace = channel_.frame_trace()) {
    trace->tx_start(sim_.now(), id_, pkt->mac.type, pkt->mac.seq);
  }
  if (book_carrier(sim_.now())) report_edge();
  channel_.transmit(*this, *pkt, dur);
  sim_.schedule_in(dur, [this] {
    catch_up();
    tx_active_ = false;
    const bool edge = book_carrier(sim_.now());
    // Inform the MAC of TX completion *before* the carrier-idle report: the
    // MAC must update its exchange state (e.g. start awaiting the ACK)
    // before any idle notification can restart contention.
    if (on_tx_done_) on_tx_done_();
    if (edge) report_edge();
  });
}

void WirelessPhy::signal_start(PacketPtr pkt, bool pre_corrupted,
                               SimTime duration, Meters tx_dist) {
  catch_up();
  if (begin_signal(sim_.scheduler().running(), std::move(pkt), pre_corrupted,
                   duration, tx_dist)) {
    report_edge();
  }
}

bool WirelessPhy::begin_signal(Scheduler::Key key, PacketPtr pkt,
                               bool pre_corrupted, SimTime airtime,
                               Meters dist) {
  const std::uint64_t seq = next_signal_seq_++;
  constexpr double ratio = PhyParams::capture_distance_ratio;
  // Lock onto a decodable frame when not transmitting or already decoding,
  // provided every signal currently on the air is weak enough to be
  // captured over (all at least `ratio` times farther than the new frame's
  // transmitter). A quiet medium is the trivial case.
  bool can_lock = !tx_active_ && decoding_seq_ == 0 && pkt != nullptr;
  if (can_lock) {
    for (const Signal& signal : active_signals_) {
      if (signal.dist < dist * ratio) {
        can_lock = false;
        break;
      }
    }
  }
  if (can_lock) {
    decoding_seq_ = seq;
    decoding_pkt_ = std::move(pkt);
    decoding_corrupted_ = pre_corrupted;
    decoding_dist_ = dist;
  } else if (decoding_seq_ != 0 && !decoding_corrupted_ &&
             dist < decoding_dist_ * ratio) {
    // Capture effect: a sufficiently distant (weak) interferer does not
    // destroy the frame being decoded.
    decoding_corrupted_ = true;
    ++collisions_;
  }
  active_signals_.push_back({seq, dist});
  const bool edge = book_carrier(key.time);
  const Scheduler::Key end = Scheduler::follow(key, airtime);
  if (needs_idle_edges_ || seq == decoding_seq_) {
    sim_.scheduler().schedule(end, [this, seq] { signal_end(seq); });
  } else {
    file_record({end, seq, {}, {}});
  }
  return edge;
}

bool WirelessPhy::end_signal(SimTime t, std::uint64_t id) {
  auto it = std::find_if(
      active_signals_.begin(), active_signals_.end(),
      [id](const Signal& signal) { return signal.id == id; });
  MUZHA_ASSERT(it != active_signals_.end(),
               "signal end without matching start");
  *it = active_signals_.back();  // swap-pop; order is irrelevant
  active_signals_.pop_back();
  return book_carrier(t);
}

void WirelessPhy::signal_end(std::uint64_t id) {
  catch_up();
  const bool edge = end_signal(sim_.now(), id);
  if (id == decoding_seq_) {
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
  if (edge) report_edge();
}

bool WirelessPhy::book_carrier(SimTime t) {
  const bool now_busy = busy();
  if (now_busy == busy_booked_) return false;
  while (next_sample_.time < t) fold_sample();
  if (now_busy) {
    busy_since_ = t;
  } else {
    busy_accum_ += t - busy_since_;
  }
  busy_booked_ = now_busy;
  return true;
}

}  // namespace muzha
