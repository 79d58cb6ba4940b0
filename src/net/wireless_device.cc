#include "net/wireless_device.h"

#include "phy/channel.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/simulator.h"

namespace muzha {

WirelessDevice::WirelessDevice(Simulator& sim, Channel& channel, NodeId id,
                               Position pos, std::size_t ifq_capacity)
    : sim_(sim),
      phy_(sim, channel, id, pos),
      mac_(sim, phy_),
      queue_(ifq_capacity) {
  // A busy sample due before an IFQ change reads the length before it.
  queue_.set_before_change([this] { phy_.sync_busy_samples(); });
  mac_.set_rx_callback([this](PacketPtr pkt) {
    if (on_rx_) on_rx_(std::move(pkt));
  });
  mac_.set_tx_done_callback([this](bool /*success*/) { feed_mac(); });
  mac_.set_link_failure_callback([this](NodeId next_hop, PacketPtr pkt) {
    if (on_link_failure_) on_link_failure_(next_hop, std::move(pkt));
  });
}

bool WirelessDevice::send(PacketPtr pkt, NodeId next_hop) {
  if (mac_.idle() && queue_.empty()) {
    mac_.transmit(std::move(pkt), next_hop);
    return true;
  }
  return queue_.enqueue(std::move(pkt), next_hop, sim_.now());
}

void WirelessDevice::feed_mac() {
  if (!mac_.idle() || queue_.empty()) return;
  auto entry = queue_.dequeue();
  MUZHA_DCHECK(sim_.now() >= entry.enqueued_at,
               "packet dequeued before it was enqueued (time ran backwards)");
  // Accumulate per-hop queueing delay (the RoVegas forward-path option).
  entry.pkt->ip.accum_queue_delay += sim_.now() - entry.enqueued_at;
  mac_.transmit(std::move(entry.pkt), entry.next_hop);
}

}  // namespace muzha
