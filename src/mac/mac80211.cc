#include "mac/mac80211.h"

#include <algorithm>

#include "mac/mac_params.h"
#include "phy/frame_trace.h"
#include "phy/wireless_phy.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

Mac80211::Mac80211(Simulator& sim, WirelessPhy& phy)
    : sim_(sim),
      phy_(phy),
      response_timer_(sim, [this] {
        if (awaiting_ == Await::kCts) {
          on_cts_timeout();
        } else if (awaiting_ == Await::kAck) {
          on_ack_timeout();
        }
      }) {
  phy_.set_channel_state_callback(
      [this](bool busy) { on_phy_channel_state(busy); });
  phy_.set_rx_callback(
      [this](PacketPtr pkt, bool corrupted) { on_phy_rx(std::move(pkt), corrupted); });
  phy_.set_tx_done_callback([this] { on_phy_tx_done(); });
  phy_.set_needs_idle_edges(false);
}

SimTime Mac80211::frame_airtime(MacFrameType type,
                                std::uint32_t payload_bytes) const {
  // Control frames go at the basic rate; data at the data rate.
  return phy_.tx_duration(Bytes(mac_frame_bytes(type, payload_bytes)),
                          /*basic_rate=*/type != MacFrameType::kData);
}

void Mac80211::transmit(PacketPtr pkt, NodeId next_hop) {
  MUZHA_ASSERT(idle(), "MAC already holds a packet; wait for tx-done");
  MUZHA_ASSERT(pkt != nullptr, "cannot transmit a null packet");
  pending_ = std::move(pkt);
  pending_dest_ = next_hop;
  pending_->mac.type = MacFrameType::kData;
  pending_->mac.src = addr();
  pending_->mac.dst = next_hop;
  pending_->mac.seq = ++tx_seq_;
  pending_->mac.retry = false;
  short_retries_ = 0;
  long_retries_ = 0;
  // Holding a frame, the MAC acts on idle edges again.
  phy_.set_needs_idle_edges(true);
  resume_contention();
}

bool Mac80211::medium_idle() const {
  return !phy_.carrier_busy() && sim_.now() >= nav_until_;
}

void Mac80211::resume_contention() {
  if (!pending_ || contention_event_ != kInvalidEventId ||
      awaiting_ != Await::kNone || forced_tx_in_flight_) {
    return;
  }
  if (phy_.carrier_busy()) return;  // idle transition will resume us
  if (sim_.now() < nav_until_) {
    // Virtual carrier busy: re-check at NAV expiry.
    contention_event_ = sim_.schedule_at(nav_until_, [this] {
      contention_event_ = kInvalidEventId;
      resume_contention();
    });
    return;
  }
  SimTime ifs = kMacDifs;
  if (next_ifs_is_eifs_) {
    // EIFS = SIFS + ACK airtime + DIFS (802.11-1999 9.2.10).
    ifs = kMacSifs + frame_airtime(MacFrameType::kAck, 0) + kMacDifs;
  }
  contention_event_ = sim_.schedule_in(ifs, [this] { on_ifs_elapsed(); });
}

void Mac80211::cancel_contention() {
  if (contention_event_ == kInvalidEventId) return;
  sim_.cancel(contention_event_);
  contention_event_ = kInvalidEventId;
  if (counting_down_) {
    // Freeze the backoff: every slot whose boundary has passed is spent. A
    // busy edge exactly on a boundary spends that slot too, as a
    // slot-by-slot countdown does: its tick for that boundary is scheduled a
    // slot ahead, the signal start that freezes us only a propagation delay
    // ahead, so the tick runs first.
    counting_down_ = false;
    const std::int64_t spent = (sim_.now() - countdown_since_) / kMacSlot;
    MUZHA_DCHECK(spent < backoff_slots_, "backoff frozen at or past expiry");
    backoff_slots_ -= static_cast<std::uint32_t>(spent);
  }
}

void Mac80211::on_ifs_elapsed() {
  contention_event_ = kInvalidEventId;
  if (!medium_idle()) {
    resume_contention();
    return;
  }
  if (backoff_slots_ == 0) {
    start_attempt();
    return;
  }
  // One event for the whole countdown, placed among same-instant events
  // where the last of its per-slot ticks would have fired.
  counting_down_ = true;
  countdown_since_ = sim_.now();
  contention_event_ = sim_.scheduler().schedule_chain_end(
      countdown_since_ + kMacSlot * backoff_slots_, kMacSlot,
      backoff_slots_, [this] { on_backoff_expired(); });
}

void Mac80211::on_backoff_expired() {
  contention_event_ = kInvalidEventId;
  counting_down_ = false;
  // The medium can only have gone busy through on_phy_channel_state, which
  // cancels this event; NAV moves only on a received frame, which needs a
  // busy carrier first.
  MUZHA_ASSERT(medium_idle(), "backoff expired on a busy medium");
  backoff_slots_ = 0;
  start_attempt();
}

void Mac80211::start_attempt() {
  MUZHA_ASSERT(pending_ != nullptr, "attempt with no pending packet");
  if (pending_dest_ != kBroadcastId) {
    send_rts();
  } else {
    send_data();
  }
}

void Mac80211::send_rts() {
  SimTime cts_air = frame_airtime(MacFrameType::kCts, 0);
  SimTime ack_air = frame_airtime(MacFrameType::kAck, 0);
  SimTime data_air = frame_airtime(MacFrameType::kData, pending_->size_bytes);
  SimTime remaining = kMacSifs * 3 + cts_air + data_air + ack_air;

  PacketPtr rts = alloc_packet();
  rts->uid = pending_->uid;
  rts->size_bytes = 0;
  rts->mac.type = MacFrameType::kRts;
  rts->mac.src = addr();
  rts->mac.dst = pending_dest_;
  rts->mac.duration = remaining;
  last_tx_type_ = MacFrameType::kRts;
  ++rts_sent_;
  phy_.start_tx(std::move(rts), /*basic_rate=*/true);
}

void Mac80211::send_data() {
  bool broadcast = pending_dest_ == kBroadcastId;
  SimTime ack_air = frame_airtime(MacFrameType::kAck, 0);
  pending_->mac.duration =
      broadcast ? SimTime::zero() : kMacSifs + ack_air;
  last_tx_type_ = MacFrameType::kData;
  ++data_sent_;
  phy_.start_tx(clone_packet(*pending_), /*basic_rate=*/broadcast);
}

void Mac80211::send_control(MacFrameType type, NodeId dst, SimTime duration) {
  PacketPtr pkt = alloc_packet();
  pkt->size_bytes = 0;
  pkt->mac.type = type;
  pkt->mac.src = addr();
  pkt->mac.dst = dst;
  pkt->mac.duration = duration;
  phy_.start_tx(std::move(pkt), /*basic_rate=*/true);
}

void Mac80211::on_phy_channel_state(bool busy) {
  if (busy) {
    cancel_contention();
  } else {
    resume_contention();
  }
}

void Mac80211::on_phy_rx(PacketPtr pkt, bool corrupted) {
  if (corrupted) {
    // Defer EIFS after an undecodable frame so the (unheard) ACK exchange it
    // may belong to is protected.
    next_ifs_is_eifs_ = true;
    return;
  }
  next_ifs_is_eifs_ = false;
  const MacHeader& mh = pkt->mac;
  SimTime now = sim_.now();

  if (mh.dst != addr() && mh.dst != kBroadcastId) {
    // Virtual carrier sense: honor the reservation.
    nav_until_ = std::max(nav_until_, now + mh.duration);
    return;
  }

  switch (mh.type) {
    case MacFrameType::kRts: {
      if (awaiting_ != Await::kNone || forced_tx_in_flight_) return;
      if (now < nav_until_) return;  // reserved medium: do not answer
      SimTime cts_air = frame_airtime(MacFrameType::kCts, 0);
      SimTime cts_duration = mh.duration - kMacSifs - cts_air;
      if (cts_duration < SimTime::zero()) cts_duration = SimTime::zero();
      NodeId dst = mh.src;
      forced_tx_in_flight_ = true;
      cancel_contention();
      sim_.schedule_in(kMacSifs, [this, dst, cts_duration] {
        send_control(MacFrameType::kCts, dst, cts_duration);
      });
      break;
    }
    case MacFrameType::kCts: {
      if (awaiting_ != Await::kCts) return;
      response_timer_.cancel();
      awaiting_ = Await::kNone;
      short_retries_ = 0;  // CTS received: reset the short retry counter
      forced_tx_in_flight_ = true;  // data follows at SIFS, no contention
      cancel_contention();
      sim_.schedule_in(kMacSifs, [this] {
        forced_tx_in_flight_ = false;
        send_data();
      });
      break;
    }
    case MacFrameType::kData: {
      if (mh.dst == kBroadcastId) {
        if (on_rx_) on_rx_(std::move(pkt));
        return;
      }
      // Always acknowledge, even duplicates (the sender missed our ACK).
      NodeId dst = mh.src;
      if (!forced_tx_in_flight_) {
        forced_tx_in_flight_ = true;
        cancel_contention();
        sim_.schedule_in(kMacSifs, [this, dst] {
          send_control(MacFrameType::kAck, dst, SimTime::zero());
        });
      }
      auto [it, inserted] = rx_dedup_.try_emplace(mh.src, mh.seq);
      if (!inserted) {
        if (it->second == mh.seq && mh.retry) return;  // duplicate
        it->second = mh.seq;
      }
      if (on_rx_) on_rx_(std::move(pkt));
      break;
    }
    case MacFrameType::kAck: {
      if (awaiting_ != Await::kAck) return;
      response_timer_.cancel();
      awaiting_ = Await::kNone;
      tx_complete(true);
      break;
    }
  }
}

void Mac80211::on_phy_tx_done() {
  if (forced_tx_in_flight_) {
    // A CTS or MAC-ACK response finished.
    forced_tx_in_flight_ = false;
    resume_contention();
    return;
  }
  switch (last_tx_type_) {
    case MacFrameType::kRts: {
      cancel_contention();
      awaiting_ = Await::kCts;
      SimTime cts_air = frame_airtime(MacFrameType::kCts, 0);
      response_timer_.schedule_in(kMacSifs + cts_air +
                                  kMacTimeoutGuard);
      break;
    }
    case MacFrameType::kData: {
      if (pending_dest_ == kBroadcastId) {
        tx_complete(true);
      } else {
        cancel_contention();
        awaiting_ = Await::kAck;
        SimTime ack_air = frame_airtime(MacFrameType::kAck, 0);
        response_timer_.schedule_in(kMacSifs + ack_air +
                                    kMacTimeoutGuard);
      }
      break;
    }
    default:
      break;
  }
}

void Mac80211::on_cts_timeout() {
  awaiting_ = Await::kNone;
  retry_failed(/*short_frame=*/true);
}

void Mac80211::on_ack_timeout() {
  awaiting_ = Await::kNone;
  retry_failed(/*short_frame=*/false);
}

void Mac80211::retry_failed(bool short_frame) {
  ++retries_;
  std::uint32_t count = short_frame ? ++short_retries_ : ++long_retries_;
  std::uint32_t limit =
      short_frame ? kMacShortRetryLimit : kMacLongRetryLimit;
  if (count >= limit) {
    ++drops_retry_limit_;
    PacketPtr failed = std::move(pending_);
    NodeId dst = pending_dest_;
    if (FrameTrace* trace = phy_.frame_trace()) {
      trace->retry_drop(sim_.now(), addr(), dst);
    }
    tx_complete(false);
    if (on_link_failure_) on_link_failure_(dst, std::move(failed));
    return;
  }
  cw_ = std::min(cw_ * 2 + 1, kMacCwMax);
  backoff_slots_ = static_cast<std::uint32_t>(
      sim_.rng().uniform_int(0, static_cast<std::int64_t>(cw_)));
  pending_->mac.retry = true;
  resume_contention();
}

void Mac80211::tx_complete(bool success) {
  cancel_contention();
  pending_.reset();
  // Without a frame no carrier edge changes anything here: resume_contention
  // returns at once, and no contention event is pending to cancel.
  phy_.set_needs_idle_edges(false);
  pending_dest_ = kInvalidNodeId;
  short_retries_ = 0;
  long_retries_ = 0;
  cw_ = kMacCwMin;
  draw_backoff();
  if (on_tx_done_) on_tx_done_(success);
}

void Mac80211::draw_backoff() {
  // Post-transmission backoff: contend fairly for the next frame.
  backoff_slots_ = static_cast<std::uint32_t>(
      sim_.rng().uniform_int(0, static_cast<std::int64_t>(cw_)));
}

}  // namespace muzha
