// Static routing: fixed next-hop table, no discovery.
//
// Used by unit/integration tests and by experiments that want to isolate
// transport behaviour from route-discovery dynamics.
#pragma once

#include <map>

#include "net/node.h"
#include "net/routing_protocol.h"
#include "pkt/packet.h"

namespace muzha {

class StaticRouting final : public RoutingProtocol {
 public:
  explicit StaticRouting(Node& node) : node_(node) {}

  void add_route(NodeId dst, NodeId next_hop) { table_[dst] = next_hop; }

  void route_packet(PacketPtr pkt) override {
    auto it = table_.find(pkt->ip.dst);
    if (it == table_.end()) {
      ++drops_no_route_;
      return;
    }
    node_.device_send(std::move(pkt), it->second);
  }

  void handle_control(PacketPtr) override {}

  void on_link_failure(NodeId, PacketPtr) override {}

  std::uint64_t drops_no_route() const override { return drops_no_route_; }

 private:
  Node& node_;
  // Ordered map: a fixed table that tests may print or diff; sorted-key
  // iteration makes that output stable.
  std::map<NodeId, NodeId> table_;
  std::uint64_t drops_no_route_ = 0;
};

}  // namespace muzha
