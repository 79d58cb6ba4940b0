// IEEE 802.11 DCF MAC.
//
// Implements the distributed coordination function the paper's evaluation
// runs over: CSMA/CA with physical carrier sense (from the PHY) and virtual
// carrier sense (NAV), DIFS/EIFS deferral, slotted binary-exponential
// backoff, the RTS/CTS/DATA/ACK exchange (every unicast frame opens with
// RTS), per-frame retries with short/long retry counters, and duplicate
// filtering; its constants are in mac/mac_params.h. Retry exhaustion is
// surfaced as a link-failure callback, which AODV converts into a route
// error — exactly the "link failure under contention" loss source the paper
// discusses.
//
// The backoff counts down analytically: one event at its expiry instead of
// one per slot. A busy edge mid-countdown cancels the expiry and keeps only
// the slots whose boundaries have not yet passed, so the MAC freezes on
// exactly the slot boundaries a per-slot countdown would.
//
// Carrier edges matter only while the MAC holds a frame: without one,
// resume_contention() returns at once and no contention event is pending.
// So the MAC tells the PHY it needs idle edges when it takes a frame in
// transmit() and that it needs none when the frame leaves in tx_complete();
// meanwhile the PHY keeps sensed signal ends as records instead of events
// (phy/wireless_phy.h). The MAC keeps no busy time: the PHY sums it.
//
// Layering: the MAC holds at most one outgoing packet; the interface queue
// (IFQ) above feeds it the next packet on the tx-done callback. The MAC
// depends only on the PHY and the packet model.
#pragma once

#include <cstdint>
#include <map>

#include "mac/mac_params.h"
#include "phy/wireless_phy.h"
#include "pkt/packet.h"
#include "sim/inline_callback.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace muzha {

class Mac80211 {
 public:
  // Fires when the current packet leaves the MAC: delivered (success) or
  // dropped after retries (failure). The device feeds the next packet here.
  using TxDoneCallback = InlineFunction<void(bool success)>;
  // Fires on retry exhaustion, with the unreachable next hop and the failed
  // packet (for salvaging / RERR generation).
  using LinkFailureCallback = InlineFunction<void(NodeId next_hop, PacketPtr)>;
  // Received unicast-to-us or broadcast data frames, deduplicated.
  using RxCallback = InlineFunction<void(PacketPtr)>;

  Mac80211(Simulator& sim, WirelessPhy& phy);
  Mac80211(const Mac80211&) = delete;
  Mac80211& operator=(const Mac80211&) = delete;

  NodeId addr() const { return phy_.id(); }

  void set_tx_done_callback(TxDoneCallback cb) { on_tx_done_ = std::move(cb); }
  void set_link_failure_callback(LinkFailureCallback cb) {
    on_link_failure_ = std::move(cb);
  }
  void set_rx_callback(RxCallback cb) { on_rx_ = std::move(cb); }

  // True when the MAC can accept a packet from the IFQ.
  bool idle() const { return pending_ == nullptr; }

  // Hands one network-layer packet to the MAC. `next_hop` may be
  // kBroadcastId. Must only be called when idle().
  void transmit(PacketPtr pkt, NodeId next_hop);

  // Statistics.
  std::uint64_t data_frames_sent() const { return data_sent_; }
  std::uint64_t rts_sent() const { return rts_sent_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t drops_retry_limit() const { return drops_retry_limit_; }

 private:
  enum class Await { kNone, kCts, kAck };

  bool medium_idle() const;
  // Restarts deferral if a transmission is pending and nothing is scheduled.
  void resume_contention();
  void cancel_contention();
  void on_ifs_elapsed();
  void on_backoff_expired();
  void start_attempt();  // medium won: RTS for unicast, DATA for broadcast

  void send_rts();
  void send_data();
  void send_control(MacFrameType type, NodeId dst, SimTime duration);

  void on_phy_channel_state(bool busy);
  void on_phy_rx(PacketPtr pkt, bool corrupted);
  void on_phy_tx_done();

  void on_cts_timeout();
  void on_ack_timeout();
  void retry_failed(bool short_frame);
  void tx_complete(bool success);
  void draw_backoff();

  SimTime frame_airtime(MacFrameType type, std::uint32_t payload_bytes) const;

  Simulator& sim_;
  WirelessPhy& phy_;

  TxDoneCallback on_tx_done_;
  LinkFailureCallback on_link_failure_;
  RxCallback on_rx_;

  // Outgoing packet state.
  PacketPtr pending_;
  NodeId pending_dest_ = kInvalidNodeId;
  std::uint32_t short_retries_ = 0;
  std::uint32_t long_retries_ = 0;
  std::uint32_t cw_ = kMacCwMin;
  std::uint32_t backoff_slots_ = 0;
  std::uint16_t tx_seq_ = 0;

  // Contention progress. While `counting_down_`, contention_event_ is the
  // backoff expiry and the countdown started at `countdown_since_`.
  EventId contention_event_ = kInvalidEventId;
  bool counting_down_ = false;
  SimTime countdown_since_;
  bool next_ifs_is_eifs_ = false;
  SimTime nav_until_;

  // Response state.
  Await awaiting_ = Await::kNone;
  Timer response_timer_;
  MacFrameType last_tx_type_ = MacFrameType::kData;
  bool forced_tx_in_flight_ = false;  // CTS/ACK response being sent

  // Duplicate filtering: last sequence number seen per transmitter. Ordered
  // map so any future iteration (stats, aging) is deterministic by
  // construction; the table holds a handful of neighbors, lookup cost is
  // equivalent.
  std::map<NodeId, std::uint16_t> rx_dedup_;

  // Statistics.
  std::uint64_t data_sent_ = 0;
  std::uint64_t rts_sent_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t drops_retry_limit_ = 0;
};

}  // namespace muzha
