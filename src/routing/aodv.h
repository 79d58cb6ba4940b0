// AODV routing (RFC 3561 subset) — the routing protocol of Table 5.1.
//
// Implemented: on-demand RREQ flooding with duplicate suppression, reverse
// routes, destination and intermediate RREP, RERR propagation on MAC
// link-layer failure (the paper's nodes are static, so link failures come
// from retry exhaustion under contention), RREQ retries with binary
// exponential backoff, destination sequence numbers, route lifetimes and
// buffering of data packets during discovery. The timing and size constants
// are at the top of aodv.cc.
//
// Omitted relative to the RFC (not exercised by the paper's scenarios):
// HELLO messages (link failure comes from the MAC), local repair,
// gratuitous RREP, expanding-ring search (every RREQ floods the whole
// network diameter).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "net/node.h"
#include "net/routing_protocol.h"
#include "pkt/aodv_messages.h"
#include "pkt/packet.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"

namespace muzha {

class Aodv final : public RoutingProtocol {
 public:
  Aodv(Simulator& sim, Node& node);

  void route_packet(PacketPtr pkt) override;
  void handle_control(PacketPtr pkt) override;
  PacketPtr on_link_failure(NodeId next_hop, PacketPtr pkt) override;

  struct Route {
    NodeId next_hop = kInvalidNodeId;
    std::uint32_t dest_seq = 0;
    bool valid_dest_seq = false;
    std::uint8_t hops = 0;
    SimTime expiry;
    bool valid = false;
  };

  // Introspection for tests.
  const Route* find_route(NodeId dst) const;
  bool has_valid_route(NodeId dst) const;

  // Statistics.
  std::uint64_t rreqs_originated() const { return rreqs_originated_; }
  std::uint64_t rreps_sent() const { return rreps_sent_; }
  std::uint64_t rerrs_sent() const { return rerrs_sent_; }

 private:
  struct PendingDiscovery {
    std::vector<PacketPtr> buffered;
    std::uint32_t attempts = 0;  // RREQs sent for this discovery
    EventId retry_event = kInvalidEventId;
  };

  void start_discovery(NodeId dst);
  void send_rreq(NodeId dst);
  void on_rreq_timeout(NodeId dst);
  void handle_rreq(const Packet& pkt);
  void handle_rrep(PacketPtr pkt);
  void handle_rerr(const Packet& pkt);
  void send_rerr(std::vector<AodvRerr::Unreachable> unreachable);
  // Updates (creating if needed) the route to `dst`; returns the entry.
  Route& update_route(NodeId dst, NodeId next_hop, std::uint32_t dest_seq,
                      bool valid_dest_seq, std::uint8_t hops, SimTime lifetime);
  void refresh_route(Route& r);
  void flush_buffer(NodeId dst);
  PacketPtr make_control(std::uint32_t size_bytes);
  // Sends a broadcast control packet after random jitter.
  void broadcast_jittered(PacketPtr pkt);

  Simulator& sim_;
  Node& node_;

  // Ordered maps, not unordered: on_link_failure() iterates routes_ to build
  // the RERR unreachable list, and that order reaches the wire. Sorted-key
  // iteration keeps it independent of hashing and allocation history.
  std::map<NodeId, Route> routes_;
  std::map<NodeId, PendingDiscovery> pending_;
  // Duplicate RREQ cache: (origin, rreq_id) -> expiry.
  std::map<std::uint64_t, SimTime> rreq_seen_;

  std::uint32_t own_seq_ = 0;
  std::uint32_t next_rreq_id_ = 0;

  std::uint64_t rreqs_originated_ = 0;
  std::uint64_t rreps_sent_ = 0;
  std::uint64_t rerrs_sent_ = 0;
};

}  // namespace muzha
