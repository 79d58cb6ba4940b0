#include "pkt/packet.h"

namespace muzha {

PacketPtr alloc_packet() { return std::make_unique<Packet>(); }

PacketPtr make_packet(std::uint64_t& uid_counter) {
  PacketPtr p = alloc_packet();
  p->uid = ++uid_counter;
  return p;
}

PacketPtr clone_packet(const Packet& src) {
  return std::make_unique<Packet>(src);
}

const char* mac_frame_name(MacFrameType t) {
  switch (t) {
    case MacFrameType::kData:
      return "DATA";
    case MacFrameType::kRts:
      return "RTS";
    case MacFrameType::kCts:
      return "CTS";
    case MacFrameType::kAck:
      return "ACK";
  }
  return "?";
}

}  // namespace muzha
