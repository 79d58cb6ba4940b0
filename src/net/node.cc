#include "net/node.h"

#include <algorithm>

#include "net/agent.h"
#include "net/trace.h"
#include "phy/channel.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/simulator.h"

namespace muzha {

Node::Node(Simulator& sim, Channel& channel, NodeId id, Position pos)
    : sim_(sim), id_(id), device_(sim, channel, id, pos, kIfqCapacity) {
  // uid space partitioned per node so packet uids are globally unique.
  uid_counter_ = static_cast<std::uint64_t>(id) << 40;
  device_.set_rx_callback([this](PacketPtr pkt) { on_device_rx(std::move(pkt)); });
  device_.set_link_failure_callback([this](NodeId next_hop, PacketPtr pkt) {
    on_device_link_failure(next_hop, std::move(pkt));
  });
}

void Node::register_agent(std::uint16_t port, Agent& agent) {
  MUZHA_ASSERT(agents_.find(port) == agents_.end(),
               "port already bound on this node");
  agents_[port] = &agent;
}

PacketPtr Node::new_packet(NodeId dst, IpProto proto,
                           std::uint32_t size_bytes) {
  PacketPtr p = make_packet(uid_counter_);
  p->ip.src = id_;
  p->ip.dst = dst;
  p->ip.proto = proto;
  p->ip.ttl = kDefaultTtl;
  p->size_bytes = size_bytes;
  return p;
}

void Node::trace(TraceEventKind kind, const Packet& pkt) {
  if (trace_ == nullptr) return;
  trace_->on_event(make_trace_event(sim_.now(), id_, kind, pkt));
}

void Node::send(PacketPtr pkt) {
  MUZHA_ASSERT(routing_ != nullptr, "node has no routing protocol");
  trace(TraceEventKind::kLocalSend, *pkt);
  if (pkt->ip.dst == id_) {
    // Loopback delivery (used by tests).
    on_device_rx(std::move(pkt));
    return;
  }
  routing_->route_packet(std::move(pkt));
}

void Node::device_send(PacketPtr pkt, NodeId next_hop) {
  stamp_drai(*pkt);
  if (trace_ != nullptr) {
    // Record the (possible) IFQ drop at the node that suffered it.
    TraceEvent ev =
        make_trace_event(sim_.now(), id_, TraceEventKind::kDropIfq, *pkt);
    if (!device_.send(std::move(pkt), next_hop)) trace_->on_event(ev);
    return;
  }
  device_.send(std::move(pkt), next_hop);
}

void Node::stamp_drai(Packet& pkt) {
  if (drai_source_ == nullptr || pkt.ip.proto != IpProto::kTcp) return;
  const DraiStamp s = drai_source_->stamp();
  MUZHA_DCHECK(s.drai >= kDraiAggressiveDecel && s.drai <= kDraiAggressiveAccel,
               "router published a DRAI outside the 5-level range");
  pkt.ip.avbw_s = std::min(pkt.ip.avbw_s, s.drai);
  if (s.mark) pkt.ip.congestion_marked = true;
}

void Node::on_device_rx(PacketPtr pkt) {
  if (pkt->ip.proto == IpProto::kAodv) {
    if (routing_) routing_->handle_control(std::move(pkt));
    return;
  }
  if (pkt->ip.dst == id_ || pkt->ip.dst == kBroadcastId) {
    ++delivered_local_;
    if (pkt->has_tcp()) {
      auto it = agents_.find(pkt->tcp().dst_port);
      if (it == agents_.end()) {
        ++drops_no_agent_;
        trace(TraceEventKind::kDropNoAgent, *pkt);
        return;
      }
      trace(TraceEventKind::kDeliver, *pkt);
      it->second->receive(std::move(pkt));
      return;
    }
    ++drops_no_agent_;
    trace(TraceEventKind::kDropNoAgent, *pkt);
    return;
  }
  // Forwarding path.
  if (pkt->ip.ttl <= 1) {
    ++drops_ttl_;
    trace(TraceEventKind::kDropTtl, *pkt);
    return;
  }
  --pkt->ip.ttl;
  ++forwarded_;
  trace(TraceEventKind::kForward, *pkt);
  MUZHA_ASSERT(routing_ != nullptr, "forwarding node has no routing protocol");
  routing_->route_packet(std::move(pkt));
}

void Node::on_device_link_failure(NodeId next_hop, PacketPtr pkt) {
  if (pkt != nullptr) trace(TraceEventKind::kDropMac, *pkt);
  if (routing_) routing_->on_link_failure(next_hop, std::move(pkt));
}

}  // namespace muzha
