// Wireless ad hoc node: IP layer + device + routing + transport agents.
//
// This is where the paper's hybrid end-host/router role lives: every node
// forwards packets, and — when a DraiSource is attached — stamps the AVBW-S
// option (path-minimum DRAI) and the congestion mark on TCP packets it
// transmits, whether locally originated or forwarded (Sec. 4.4).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

#include "net/agent.h"
#include "net/routing_protocol.h"
#include "net/trace.h"
#include "net/wireless_device.h"
#include "phy/channel.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "sim/simulator.h"

namespace muzha {

// Table 5.1's 50-packet drop-tail interface queue.
inline constexpr std::size_t kIfqCapacity = 50;
// IP TTL of locally originated packets.
inline constexpr std::uint8_t kDefaultTtl = 64;

class Node {
 public:
  Node(Simulator& sim, Channel& channel, NodeId id, Position pos);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Simulator& sim() { return sim_; }
  WirelessDevice& device() { return device_; }
  const WirelessDevice& device() const { return device_; }

  void set_routing(std::unique_ptr<RoutingProtocol> routing) {
    routing_ = std::move(routing);
  }
  RoutingProtocol& routing() { return *routing_; }

  // Non-owning; nullptr disables Muzha router assistance on this node.
  void set_drai_source(DraiSource* src) { drai_source_ = src; }

  // Non-owning; nullptr (default) disables packet tracing on this node.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  // Binds an agent (non-owning) to a local port.
  void register_agent(std::uint16_t port, Agent& agent);

  // Allocates a packet with node-scoped uid and this node as IP source.
  PacketPtr new_packet(NodeId dst, IpProto proto, std::uint32_t size_bytes);

  // Entry point for locally originated packets (from transport agents).
  void send(PacketPtr pkt);

  // Called by the routing protocol once a next hop is known; stamps DRAI and
  // hands the packet to the device.
  void device_send(PacketPtr pkt, NodeId next_hop);

  // The one record of a packet milestone at this node: counts it under
  // `kind` and traces it. Every drop, whatever layer discards the packet,
  // is noted here once under its cause (DESIGN.md "Drops").
  void note(TraceEventKind kind, const Packet& pkt);

  // Milestones noted at this node under `kind`.
  std::uint64_t count(TraceEventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

 private:
  void on_device_rx(PacketPtr pkt);
  void on_device_link_failure(NodeId next_hop, PacketPtr pkt);
  void stamp_drai(Packet& pkt);

  Simulator& sim_;
  NodeId id_;
  WirelessDevice device_;
  std::unique_ptr<RoutingProtocol> routing_;
  DraiSource* drai_source_ = nullptr;
  TraceSink* trace_ = nullptr;
  // Ordered map (a node binds a handful of ports): keeps any future walk of
  // the agent table deterministic and avoids hashing on the demux path.
  std::map<std::uint16_t, Agent*> agents_;
  std::uint64_t uid_counter_ = 0;
  std::array<std::uint64_t, kTraceEventKinds> counts_{};
};

}  // namespace muzha
