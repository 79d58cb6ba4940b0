// Packet-event tracing (the NS-2 trace-file idea).
//
// Nodes emit one event per packet milestone — local send, forward, deliver,
// and one drop cause per discarded packet — through Node::note, which also
// counts it. Sinks are pluggable: tests and the step harness collect events
// in memory (VectorTraceSink, stats/trace_sinks.h).
#pragma once

#include <cstddef>
#include <cstdint>

#include "pkt/packet.h"
#include "sim/sim_time.h"

namespace muzha {

enum class TraceEventKind : std::uint8_t {
  kLocalSend,       // transport handed a packet to this node's IP layer
  kForward,         // node relayed a packet toward its destination
  kDeliver,         // reached its agent, or its node when raw IP (CBR)
  kDropTtl,         // TTL expired while forwarding
  kDropNoAgent,     // delivered to a port nobody listens on
  kDropIfq,         // drop-tail interface queue overflow
  kDropMac,         // MAC retry limit exhausted and the packet not salvaged
  kDropNoRoute,     // no route at a relay, or no static route
  kDropSendBuffer,  // AODV send buffer full while discovery runs
  kDropDiscovery,   // buffered for a route discovery that failed
};
inline constexpr std::size_t kTraceEventKinds =
    static_cast<std::size_t>(TraceEventKind::kDropDiscovery) + 1;

struct TraceEvent {
  SimTime time;
  NodeId node = kInvalidNodeId;  // where the event happened
  TraceEventKind kind = TraceEventKind::kLocalSend;
  std::uint64_t uid = 0;
  NodeId src = kInvalidNodeId;
  NodeId dst = kInvalidNodeId;
  IpProto proto = IpProto::kNone;
  std::uint32_t size_bytes = 0;
  // TCP details when present.
  bool is_ack = false;
  std::int64_t seqno = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& ev) = 0;
};

// Builds a TraceEvent for `pkt` as seen at `node`.
TraceEvent make_trace_event(SimTime now, NodeId node, TraceEventKind kind,
                            const Packet& pkt);

}  // namespace muzha
