// Network device: drop-tail IFQ feeding an 802.11 MAC over a wireless PHY.
#pragma once

#include "mac/mac80211.h"
#include "net/drop_tail_queue.h"
#include "phy/channel.h"
#include "phy/position.h"
#include "phy/wireless_phy.h"
#include "pkt/packet.h"
#include "sim/inline_callback.h"
#include "sim/simulator.h"

namespace muzha {

class WirelessDevice {
 public:
  using RxCallback = InlineFunction<void(PacketPtr)>;
  using LinkFailureCallback = InlineFunction<void(NodeId, PacketPtr)>;

  WirelessDevice(Simulator& sim, Channel& channel, NodeId id, Position pos,
                 std::size_t ifq_capacity);
  WirelessDevice(const WirelessDevice&) = delete;
  WirelessDevice& operator=(const WirelessDevice&) = delete;

  NodeId id() const { return phy_.id(); }

  void set_rx_callback(RxCallback cb) { on_rx_ = std::move(cb); }
  void set_link_failure_callback(LinkFailureCallback cb) {
    on_link_failure_ = std::move(cb);
  }

  // Queues a packet for `next_hop` (kBroadcastId allowed). Returns false if
  // the drop-tail IFQ was full and the packet was dropped.
  bool send(PacketPtr pkt, NodeId next_hop);

  WirelessPhy& phy() { return phy_; }
  const WirelessPhy& phy() const { return phy_; }
  Mac80211& mac() { return mac_; }
  const Mac80211& mac() const { return mac_; }
  DropTailQueue& queue() { return queue_; }
  const DropTailQueue& queue() const { return queue_; }

 private:
  void feed_mac();

  Simulator& sim_;
  WirelessPhy phy_;
  Mac80211 mac_;
  DropTailQueue queue_;
  RxCallback on_rx_;
  LinkFailureCallback on_link_failure_;
};

}  // namespace muzha
