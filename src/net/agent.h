// Transport agent interface: anything bound to a (node, port) that receives
// IP packets — TCP senders, TCP sinks, CBR sinks.
#pragma once

#include "pkt/packet.h"

namespace muzha {

class Agent {
 public:
  virtual ~Agent() = default;
  virtual void receive(PacketPtr pkt) = 0;
};

// One router's answer for one forwarded TCP packet: its DRAI level and
// whether it marks the packet as congested.
struct DraiStamp {
  std::uint8_t drai;
  bool mark;
};

// Provider of the local DRAI value and congestion-mark decision, implemented
// by the Muzha bandwidth estimator (src/core) and the RED/ECN marker
// (src/relwork). Nodes without one forward packets untouched, modelling
// routers that do not speak Muzha.
class DraiSource {
 public:
  virtual ~DraiSource() = default;
  // Queried once per forwarded TCP packet.
  virtual DraiStamp stamp() = 0;
};

}  // namespace muzha
