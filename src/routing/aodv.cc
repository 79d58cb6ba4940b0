#include "routing/aodv.h"

#include <algorithm>

#include "net/node.h"
#include "net/trace.h"
#include "pkt/aodv_messages.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

namespace {

constexpr SimTime kActiveRouteTimeout = SimTime::from_seconds(10.0);
// RFC 3561 defaults (40 ms / 35) yield a 2.8 s discovery timeout — sized for
// Internet-scale MANETs. NS-2's AODV uses timeouts an order of magnitude
// shorter; for the paper's <= 33-node topologies we take 10 ms per node,
// giving a 0.7 s first-attempt timeout.
constexpr SimTime kNodeTraversalTime = SimTime::from_ms(10);
constexpr std::uint8_t kNetDiameter = 35;  // TTL of every RREQ flood
constexpr SimTime kNetTraversalTime = kNodeTraversalTime * (2 * kNetDiameter);
constexpr std::uint32_t kRreqRetries = 2;  // attempts = 1 + retries
constexpr std::size_t kSendBufferCapacity = 64;
constexpr SimTime kPathDiscoveryTime = SimTime::from_seconds(5.6);
// Broadcasts (RREQ floods, RERRs) are delayed by a uniform random jitter to
// break the deterministic lockstep collisions of simultaneous floods (RFC
// 3561 s6.x "to avoid synchronization").
constexpr SimTime kBroadcastJitter = SimTime::from_ms(10);

std::uint64_t rreq_key(NodeId origin, std::uint32_t rreq_id) {
  return (static_cast<std::uint64_t>(origin) << 32) | rreq_id;
}
// Sequence number comparison with wraparound (RFC 3561 s6.1).
bool seq_newer(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}
}  // namespace

Aodv::Aodv(Simulator& sim, Node& node) : sim_(sim), node_(node) {}

PacketPtr Aodv::make_control(std::uint32_t size_bytes) {
  PacketPtr p = node_.new_packet(kBroadcastId, IpProto::kAodv, size_bytes);
  p->ip.ttl = kNetDiameter;
  return p;
}

void Aodv::broadcast_jittered(PacketPtr pkt) {
  SimTime jitter =
      SimTime::from_ns(sim_.rng().uniform_int(0, kBroadcastJitter.ns()));
  sim_.schedule_in(jitter, [this, pkt = std::move(pkt)]() mutable {
    node_.device_send(std::move(pkt), kBroadcastId);
  });
}

const Aodv::Route* Aodv::find_route(NodeId dst) const {
  auto it = routes_.find(dst);
  return it == routes_.end() ? nullptr : &it->second;
}

bool Aodv::has_valid_route(NodeId dst) const {
  const Route* r = find_route(dst);
  return r != nullptr && r->valid && r->expiry > sim_.now();
}

void Aodv::refresh_route(Route& r) {
  r.expiry = std::max(r.expiry, sim_.now() + kActiveRouteTimeout);
}

Aodv::Route& Aodv::update_route(NodeId dst, NodeId next_hop,
                                std::uint32_t dest_seq, bool valid_dest_seq,
                                std::uint8_t hops, SimTime lifetime) {
  Route& r = routes_[dst];
  r.next_hop = next_hop;
  r.dest_seq = dest_seq;
  r.valid_dest_seq = valid_dest_seq;
  r.hops = hops;
  r.expiry = std::max(r.expiry, sim_.now() + lifetime);
  r.valid = true;
  return r;
}

void Aodv::route_packet(PacketPtr pkt) {
  NodeId dst = pkt->ip.dst;
  MUZHA_ASSERT(dst != node_.id(), "routing a packet addressed to ourselves");
  auto it = routes_.find(dst);
  if (it != routes_.end() && it->second.valid && it->second.expiry > sim_.now()) {
    refresh_route(it->second);
    node_.device_send(std::move(pkt), it->second.next_hop);
    return;
  }
  if (pkt->ip.src == node_.id()) {
    // Originator: buffer and discover.
    PendingDiscovery& pd = pending_[dst];
    if (pd.buffered.size() >= kSendBufferCapacity) {
      node_.note(TraceEventKind::kDropSendBuffer, *pkt);
    } else {
      pd.buffered.push_back(std::move(pkt));
    }
    if (pd.retry_event == kInvalidEventId) start_discovery(dst);
    return;
  }
  // Intermediate node lost the route: drop and report upstream (RFC 3561
  // s6.11 case (ii)).
  node_.note(TraceEventKind::kDropNoRoute, *pkt);
  std::uint32_t seq = 0;
  if (it != routes_.end()) seq = it->second.dest_seq + 1;
  send_rerr({{dst, seq}});
}

void Aodv::start_discovery(NodeId dst) {
  PendingDiscovery& pd = pending_[dst];
  pd.attempts = 0;
  send_rreq(dst);
}

void Aodv::send_rreq(NodeId dst) {
  PendingDiscovery& pd = pending_[dst];
  ++pd.attempts;
  ++rreqs_originated_;
  ++own_seq_;

  PacketPtr p = make_control(kAodvRreqBytes);
  AodvMessage msg;
  AodvRreq rreq;
  rreq.rreq_id = ++next_rreq_id_;
  rreq.origin = node_.id();
  rreq.origin_seq = own_seq_;
  rreq.dest = dst;
  const Route* r = find_route(dst);
  if (r != nullptr && r->valid_dest_seq) {
    rreq.dest_seq = r->dest_seq;
    rreq.unknown_dest_seq = false;
  }
  rreq.hop_count = 0;
  msg.body = rreq;
  p->l4 = msg;

  // Suppress our own flood copies.
  rreq_seen_[rreq_key(node_.id(), rreq.rreq_id)] =
      sim_.now() + kPathDiscoveryTime;

  broadcast_jittered(std::move(p));

  // Binary exponential backoff on the attempts.
  SimTime timeout = kNetTraversalTime * (std::int64_t{1} << (pd.attempts - 1));
  pd.retry_event = sim_.schedule_in(timeout, [this, dst] { on_rreq_timeout(dst); });
}

void Aodv::on_rreq_timeout(NodeId dst) {
  auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  PendingDiscovery& pd = it->second;
  pd.retry_event = kInvalidEventId;
  if (has_valid_route(dst)) {
    // Race: the RREP arrived as the timer fired.
    flush_buffer(dst);
    return;
  }
  if (pd.attempts <= kRreqRetries) {
    send_rreq(dst);
    return;
  }
  // Discovery failed: drop everything buffered for this destination.
  ++discovery_failures_;
  for (const PacketPtr& p : pd.buffered) {
    node_.note(TraceEventKind::kDropDiscovery, *p);
  }
  pending_.erase(it);
}

void Aodv::handle_control(PacketPtr pkt) {
  MUZHA_ASSERT(pkt->has_aodv(), "control packet without AODV payload");
  const AodvMessage& msg = pkt->aodv();
  if (msg.is_rreq()) {
    handle_rreq(*pkt);
  } else if (msg.is_rrep()) {
    handle_rrep(std::move(pkt));
  } else {
    handle_rerr(*pkt);
  }
}

void Aodv::handle_rreq(const Packet& pkt) {
  const AodvRreq& rreq = pkt.aodv().rreq();
  if (rreq.origin == node_.id()) return;  // our own flood came back

  std::uint64_t key = rreq_key(rreq.origin, rreq.rreq_id);
  auto seen = rreq_seen_.find(key);
  if (seen != rreq_seen_.end() && seen->second > sim_.now()) return;
  rreq_seen_[key] = sim_.now() + kPathDiscoveryTime;

  NodeId prev_hop = pkt.mac.src;
  std::uint8_t hops_to_origin = rreq.hop_count + 1;

  // Reverse route to the originator (and to the previous hop).
  Route& rev = routes_[rreq.origin];
  if (!rev.valid || seq_newer(rreq.origin_seq, rev.dest_seq) ||
      (rreq.origin_seq == rev.dest_seq && hops_to_origin < rev.hops)) {
    update_route(rreq.origin, prev_hop, rreq.origin_seq, true, hops_to_origin,
                 kNetTraversalTime * 2);
  }
  if (prev_hop != rreq.origin) {
    update_route(prev_hop, prev_hop, 0, false, 1, kActiveRouteTimeout);
  }

  if (rreq.dest == node_.id()) {
    // Destination: reply. Bump our sequence number to at least the
    // requested one (RFC 3561 s6.6.1).
    if (!rreq.unknown_dest_seq && seq_newer(rreq.dest_seq, own_seq_)) {
      own_seq_ = rreq.dest_seq;
    }
    ++own_seq_;
    PacketPtr rep = make_control(kAodvRrepBytes);
    rep->ip.dst = rreq.origin;
    AodvMessage m;
    m.body = AodvRrep{rreq.origin, node_.id(), own_seq_, 0};
    rep->l4 = m;
    ++rreps_sent_;
    node_.device_send(std::move(rep), prev_hop);
    return;
  }

  const Route* fwd = find_route(rreq.dest);
  if (fwd != nullptr && fwd->valid && fwd->expiry > sim_.now() &&
      fwd->valid_dest_seq && !rreq.unknown_dest_seq &&
      !seq_newer(rreq.dest_seq, fwd->dest_seq)) {
    // Intermediate reply from a fresh-enough cached route.
    PacketPtr rep = make_control(kAodvRrepBytes);
    rep->ip.dst = rreq.origin;
    AodvMessage m;
    m.body = AodvRrep{rreq.origin, rreq.dest, fwd->dest_seq, fwd->hops};
    rep->l4 = m;
    ++rreps_sent_;
    node_.device_send(std::move(rep), prev_hop);
    return;
  }

  // Rebroadcast the flood.
  if (pkt.ip.ttl <= 1) return;
  PacketPtr fwd_pkt = clone_packet(pkt);
  --fwd_pkt->ip.ttl;
  fwd_pkt->aodv().rreq().hop_count = rreq.hop_count + 1;
  broadcast_jittered(std::move(fwd_pkt));
}

void Aodv::handle_rrep(PacketPtr pkt) {
  const AodvRrep& rrep = pkt->aodv().rrep();
  NodeId prev_hop = pkt->mac.src;
  std::uint8_t hops_to_dest = rrep.hop_count + 1;

  // Forward route to the replied destination.
  Route& r = routes_[rrep.dest];
  if (!r.valid || seq_newer(rrep.dest_seq, r.dest_seq) ||
      (rrep.dest_seq == r.dest_seq && hops_to_dest < r.hops)) {
    update_route(rrep.dest, prev_hop, rrep.dest_seq, true, hops_to_dest,
                 kActiveRouteTimeout);
  }
  if (prev_hop != rrep.dest) {
    update_route(prev_hop, prev_hop, 0, false, 1, kActiveRouteTimeout);
  }

  if (rrep.origin == node_.id()) {
    flush_buffer(rrep.dest);
    return;
  }

  // Forward the RREP along the reverse route.
  auto rev = routes_.find(rrep.origin);
  if (rev == routes_.end() || !rev->second.valid) return;
  refresh_route(rev->second);
  pkt->aodv().rrep().hop_count = hops_to_dest;
  if (pkt->ip.ttl <= 1) return;
  --pkt->ip.ttl;
  node_.device_send(std::move(pkt), rev->second.next_hop);
}

void Aodv::handle_rerr(const Packet& pkt) {
  NodeId reporter = pkt.mac.src;
  std::vector<AodvRerr::Unreachable> propagate;
  for (const auto& u : pkt.aodv().rerr().unreachable) {
    auto it = routes_.find(u.dest);
    if (it == routes_.end() || !it->second.valid) continue;
    if (it->second.next_hop != reporter) continue;
    it->second.valid = false;
    if (seq_newer(u.dest_seq, it->second.dest_seq)) {
      it->second.dest_seq = u.dest_seq;
    }
    propagate.push_back(u);
  }
  if (!propagate.empty()) send_rerr(std::move(propagate));
}

void Aodv::send_rerr(std::vector<AodvRerr::Unreachable> unreachable) {
  PacketPtr p = make_control(kAodvRerrBytes);
  p->ip.ttl = 1;
  AodvMessage m;
  AodvRerr rerr;
  rerr.unreachable = std::move(unreachable);
  m.body = std::move(rerr);
  p->l4 = std::move(m);
  ++rerrs_sent_;
  broadcast_jittered(std::move(p));
}

PacketPtr Aodv::on_link_failure(NodeId next_hop, PacketPtr pkt) {
  // Invalidate every route through the broken hop and report the affected
  // destinations.
  std::vector<AodvRerr::Unreachable> unreachable;
  for (auto& [dst, r] : routes_) {
    if (!r.valid || r.next_hop != next_hop) continue;
    r.valid = false;
    r.dest_seq += 1;
    unreachable.push_back({dst, r.dest_seq});
  }
  if (!unreachable.empty()) send_rerr(std::move(unreachable));

  // Salvage the failed packet if we are its originator: re-discovery will
  // re-send it. Forwarded and control packets go back to the node, which
  // drops them (the source learns via RERR).
  if (pkt != nullptr && pkt->ip.src == node_.id() &&
      pkt->ip.proto != IpProto::kAodv) {
    route_packet(std::move(pkt));
    return nullptr;
  }
  return pkt;
}

void Aodv::flush_buffer(NodeId dst) {
  auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  if (it->second.retry_event != kInvalidEventId) {
    sim_.cancel(it->second.retry_event);
  }
  std::vector<PacketPtr> buffered = std::move(it->second.buffered);
  pending_.erase(it);
  for (PacketPtr& p : buffered) {
    route_packet(std::move(p));
  }
}

}  // namespace muzha
