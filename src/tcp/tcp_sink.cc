#include "tcp/tcp_sink.h"

#include "net/node.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/simulator.h"

namespace muzha {

namespace {

// IP datagram size of an ACK: a bare 40 B TCP/IP header.
constexpr std::uint32_t kAckBytes = 40;
// SACK blocks per ACK: what fits in the TCP option space next to a
// timestamp option (RFC 2018).
constexpr std::size_t kSackBlocksPerAck = 3;

}  // namespace

TcpSink::TcpSink(Simulator& sim, Node& node, std::uint16_t port)
    : sim_(sim), node_(node), port_(port) {}

void TcpSink::start() {
  if (started_) return;
  started_ = true;
  node_.register_agent(port_, *this);
}

void TcpSink::receive(PacketPtr pkt) {
  MUZHA_ASSERT(pkt->has_tcp(), "sink received non-TCP packet");
  const TcpHeader& h = pkt->tcp();
  if (h.is_ack) return;

  std::int64_t s = h.seqno;
  bool is_dup = false;
  if (s == next_expected_) {
    std::int64_t before = next_expected_;
    ++next_expected_;
    while (!out_of_order_buf_.empty() &&
           *out_of_order_buf_.begin() == next_expected_) {
      out_of_order_buf_.erase(out_of_order_buf_.begin());
      ++next_expected_;
    }
    if (on_delivery_) {
      on_delivery_(sim_.now(), next_expected_ - before, pkt->size_bytes);
    }
  } else if (s > next_expected_) {
    ++out_of_order_;
    auto [it, inserted] = out_of_order_buf_.insert(s);
    (void)it;
    if (!inserted) ++duplicates_;
    is_dup = true;  // generates a duplicate cumulative ACK
  } else {
    // Already delivered (sender retransmitted needlessly).
    ++duplicates_;
    is_dup = true;
  }

  send_ack(*pkt, is_dup);
}

void TcpSink::fill_sacks(TcpHeader& ack, std::int64_t trigger_seq) const {
  // Report contiguous runs of buffered segments, the run containing the most
  // recent arrival first (RFC 2018).
  if (out_of_order_buf_.empty()) return;
  struct Run {
    std::int64_t begin, end;
    bool has_trigger;
  };
  std::vector<Run> runs;
  auto it = out_of_order_buf_.begin();
  std::int64_t begin = *it, prev = *it;
  bool has_trigger = (*it == trigger_seq);
  for (++it; it != out_of_order_buf_.end(); ++it) {
    if (*it == prev + 1) {
      prev = *it;
      if (*it == trigger_seq) has_trigger = true;
      continue;
    }
    runs.push_back({begin, prev + 1, has_trigger});
    begin = prev = *it;
    has_trigger = (*it == trigger_seq);
  }
  runs.push_back({begin, prev + 1, has_trigger});

  // Trigger run first, then most recent others up to the block limit.
  for (const Run& r : runs) {
    if (r.has_trigger) ack.sacks.push_back({r.begin, r.end});
  }
  for (auto rit = runs.rbegin(); rit != runs.rend(); ++rit) {
    if (ack.sacks.size() >= kSackBlocksPerAck) break;
    if (rit->has_trigger) continue;
    ack.sacks.push_back({rit->begin, rit->end});
  }
}

void TcpSink::customize_ack(TcpHeader&, const Packet&, bool) {}

void TcpSink::send_ack(const Packet& data, bool is_dup) {
  PacketPtr ack = node_.new_packet(data.ip.src, IpProto::kTcp, kAckBytes);
  TcpHeader h;
  h.flow = data.tcp().flow;
  h.src_port = port_;
  h.dst_port = data.tcp().src_port;
  h.is_ack = true;
  h.seqno = next_expected_ - 1;
  h.ts_echo = data.tcp().ts;
  // Muzha feedback: echo the path-minimum DRAI carried by this data packet,
  // and mark duplicate ACKs caused by congestion-region packets.
  h.mrai = data.ip.avbw_s;
  h.marked = is_dup && (data.ip.congestion_marked ||
                        data.ip.avbw_s <= kDraiModerateDecel);
  // Jersey-style CW echo: router mark reflected on every ACK.
  h.ce_echo = data.ip.congestion_marked;
  // RoVegas: forward-path queueing delay accumulated by the devices.
  h.qdelay_echo = data.ip.accum_queue_delay;
  // TCP-DOOR: duplicate-ACK stream sequence (resets on fresh ACKs).
  if (is_dup) {
    h.dup_seq = ++dup_seq_;
  } else {
    dup_seq_ = 0;
  }
  fill_sacks(h, data.tcp().seqno);
  customize_ack(h, data, is_dup);
  ack->l4 = std::move(h);
  ++acks_sent_;
  node_.send(std::move(ack));
}

}  // namespace muzha
