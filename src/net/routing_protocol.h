// Routing protocol interface, implemented by AODV and StaticRouting.
//
// Lives in the net library (not routing) so Node can own a RoutingProtocol
// without a dependency cycle.
#pragma once

#include "pkt/packet.h"

namespace muzha {

class RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  // Routes an IP packet (locally originated or being forwarded): either
  // hands it to the device toward a next hop — possibly later, after route
  // discovery — or drops it through Node::note under its cause.
  virtual void route_packet(PacketPtr pkt) = 0;

  // Handles a received routing-control packet (IpProto::kAodv).
  virtual void handle_control(PacketPtr pkt) = 0;

  // MAC gave up delivering `pkt` (possibly null) to `next_hop`. Returns the
  // packet unless the protocol salvaged it; the node drops what comes back.
  virtual PacketPtr on_link_failure(NodeId next_hop, PacketPtr pkt) = 0;
};

}  // namespace muzha
