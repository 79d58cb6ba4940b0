#include "net/trace.h"

#include "pkt/packet.h"
#include "sim/sim_time.h"

namespace muzha {

TraceEvent make_trace_event(SimTime now, NodeId node, TraceEventKind kind,
                            const Packet& pkt) {
  TraceEvent ev;
  ev.time = now;
  ev.node = node;
  ev.kind = kind;
  ev.uid = pkt.uid;
  ev.src = pkt.ip.src;
  ev.dst = pkt.ip.dst;
  ev.proto = pkt.ip.proto;
  ev.size_bytes = pkt.size_bytes;
  if (pkt.has_tcp()) {
    ev.is_ack = pkt.tcp().is_ack;
    ev.seqno = pkt.tcp().seqno;
  }
  return ev;
}

}  // namespace muzha
