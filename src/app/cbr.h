// Constant-bit-rate background traffic source.
//
// Sends fixed-size raw IP packets (no transport) at a fixed rate; used to
// inject competing load in stress tests and ablations. Delivery is
// fire-and-forget: the destination node counts but does not consume them.
#pragma once

#include <cstdint>

#include "net/node.h"
#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

class CbrApp {
 public:
  struct Config {
    NodeId dst = kInvalidNodeId;
    std::uint32_t packet_size_bytes = 512;
    BitsPerSecond rate = BitsPerSecond(100'000);
    SimTime start_time;
  };

  CbrApp(Simulator& sim, Node& node, Config cfg)
      : sim_(sim), node_(node), cfg_(cfg) {}

  void install() {
    sim_.schedule_at(cfg_.start_time, [this] { tick(); });
  }

  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void tick() {
    PacketPtr p =
        node_.new_packet(cfg_.dst, IpProto::kNone, cfg_.packet_size_bytes);
    ++packets_sent_;
    node_.send(std::move(p));
    Seconds interval = to_bits(Bytes(cfg_.packet_size_bytes)) / cfg_.rate;
    sim_.schedule_in(to_sim_time(interval), [this] { tick(); });
  }

  Simulator& sim_;
  Node& node_;
  Config cfg_;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace muzha
