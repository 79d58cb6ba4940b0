// Packet model with stacked protocol headers.
//
// Like NS-2, a Packet carries every layer's header at once; layers read and
// write only their own header. Packets move through the stack as
// std::unique_ptr<Packet> (exactly one owner at a time); broadcast fan-out
// clones one copy per receiver.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <variant>

#include "pkt/aodv_messages.h"
#include "sim/assert.h"
#include "sim/sim_time.h"

namespace muzha {

using NodeId = std::uint32_t;
inline constexpr NodeId kBroadcastId = 0xFFFFFFFFu;
inline constexpr NodeId kInvalidNodeId = 0xFFFFFFFEu;

using FlowId = std::uint32_t;

// ---------------------------------------------------------------------------
// MAC header (IEEE 802.11 style)
// ---------------------------------------------------------------------------

enum class MacFrameType : std::uint8_t { kData, kRts, kCts, kAck };

struct MacHeader {
  MacFrameType type = MacFrameType::kData;
  NodeId src = kInvalidNodeId;
  NodeId dst = kInvalidNodeId;
  // Remaining medium reservation after this frame ends (NAV duration).
  SimTime duration;
  std::uint16_t seq = 0;
  bool retry = false;
};

// On-air MAC overhead in bytes (802.11 header + FCS; control frame sizes).
inline constexpr std::uint32_t kMacDataOverheadBytes = 28;  // 24 hdr + 4 FCS
inline constexpr std::uint32_t kMacRtsBytes = 20;
inline constexpr std::uint32_t kMacCtsBytes = 14;
inline constexpr std::uint32_t kMacAckBytes = 14;

// On-air bytes of a MAC frame of `type` carrying an `ip_bytes` datagram
// (control frames carry none): the one size table of the MAC and the PHY.
constexpr std::uint32_t mac_frame_bytes(MacFrameType type,
                                        std::uint32_t ip_bytes) {
  switch (type) {
    case MacFrameType::kRts:
      return ip_bytes + kMacRtsBytes;
    case MacFrameType::kCts:
      return ip_bytes + kMacCtsBytes;
    case MacFrameType::kAck:
      return ip_bytes + kMacAckBytes;
    case MacFrameType::kData:
      break;
  }
  return ip_bytes + kMacDataOverheadBytes;
}

// ---------------------------------------------------------------------------
// IP header, including TCP Muzha's AVBW-S option
// ---------------------------------------------------------------------------

enum class IpProto : std::uint8_t { kNone, kTcp, kAodv };

// DRAI (Data Rate Adjustment Index) levels, Table 5.2 of the paper.
inline constexpr std::uint8_t kDraiAggressiveDecel = 1;
inline constexpr std::uint8_t kDraiModerateDecel = 2;
inline constexpr std::uint8_t kDraiStabilize = 3;
inline constexpr std::uint8_t kDraiModerateAccel = 4;
inline constexpr std::uint8_t kDraiAggressiveAccel = 5;

struct IpHeader {
  NodeId src = kInvalidNodeId;
  NodeId dst = kInvalidNodeId;
  IpProto proto = IpProto::kNone;
  std::uint8_t ttl = 64;
  // AVBW-S option: path-minimum DRAI. The sender initialises it to the
  // maximum level; every node on the path (source included) lowers it to its
  // own DRAI if smaller. At the receiver it is the MRAI.
  std::uint8_t avbw_s = kDraiAggressiveAccel;
  // Congestion mark set by routers whose DRAI is in the deceleration region.
  bool congestion_marked = false;
  // RoVegas-style option: queueing delay accumulated hop by hop on the
  // forward path (each device adds the time the packet sat in its IFQ).
  SimTime accum_queue_delay;
};

// ---------------------------------------------------------------------------
// TCP header (packet-based, NS-2 "one-way TCP" style)
// ---------------------------------------------------------------------------

struct SackBlock {
  std::int64_t begin = 0;  // first seqno in block
  std::int64_t end = 0;    // one past last seqno in block
  friend bool operator==(const SackBlock&, const SackBlock&) = default;
};

// Fixed-capacity SACK block list. The real option carries at most 3 blocks
// (RFC 2018); storing them inline keeps TcpHeader — and therefore Packet —
// free of heap-owning members, which is what lets the packet arena clone and
// recycle packets without touching the allocator. push_back saturates at
// capacity (the sink sends at most 3, kSackBlocksPerAck in tcp_sink.cc).
inline constexpr int kMaxSackBlocks = 4;

class SackList {
 public:
  SackList() = default;
  SackList(std::initializer_list<SackBlock> blocks) {
    for (const SackBlock& b : blocks) push_back(b);
  }

  void push_back(const SackBlock& b) {
    MUZHA_DCHECK(count_ < kMaxSackBlocks,
                 "SackList overflow: more blocks than the option carries");
    if (count_ < kMaxSackBlocks) blocks_[static_cast<std::size_t>(count_++)] = b;
  }
  void clear() { count_ = 0; }
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return static_cast<std::size_t>(count_); }
  const SackBlock& operator[](std::size_t i) const { return blocks_[i]; }
  SackBlock& operator[](std::size_t i) { return blocks_[i]; }
  const SackBlock* begin() const { return blocks_.data(); }
  const SackBlock* end() const { return blocks_.data() + count_; }

  friend bool operator==(const SackList& a, const SackList& b) {
    if (a.count_ != b.count_) return false;
    for (int i = 0; i < a.count_; ++i) {
      if (!(a.blocks_[static_cast<std::size_t>(i)] ==
            b.blocks_[static_cast<std::size_t>(i)])) {
        return false;
      }
    }
    return true;
  }

 private:
  std::array<SackBlock, kMaxSackBlocks> blocks_{};
  std::int8_t count_ = 0;
};

// Network-state classification piggybacked on ACKs by an ADTCP receiver.
enum class AdtcpState : std::uint8_t {
  kNormal,
  kCongestion,
  kChannelError,
  kRouteChange,
};

struct TcpHeader {
  FlowId flow = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  bool is_ack = false;
  std::int64_t seqno = 0;  // data: segment number; ack: cumulative ack
  // Timestamp echo for RTT sampling (Karn-safe: sender ignores echoes of
  // retransmitted segments).
  SimTime ts;
  SimTime ts_echo;
  // Muzha fields echoed by the receiver.
  std::uint8_t mrai = kDraiAggressiveAccel;
  bool marked = false;  // marked duplicate ACK => congestion loss
  // SACK blocks (most recent first, at most 3 like the real option).
  SackList sacks;
  // TCP-DOOR one-byte option: duplicate-ACK stream sequence, so the sender
  // can detect out-of-order delivery among otherwise identical dup ACKs.
  std::uint32_t dup_seq = 0;
  // ADTCP receiver-side network-state classification.
  AdtcpState net_state = AdtcpState::kNormal;
  // RoVegas: forward-path accumulated queueing delay echoed back.
  SimTime qdelay_echo;
  // ECN/CW-style echo: the data packet that triggered this ACK carried a
  // router congestion mark (set on *every* ACK, unlike `marked`, which only
  // applies to duplicates — TCP Jersey consumes this one).
  bool ce_echo = false;
};

// ---------------------------------------------------------------------------
// Packet
// ---------------------------------------------------------------------------

struct Packet {
  std::uint64_t uid = 0;
  // Size of the IP datagram in bytes (payload + transport/IP headers). MAC
  // framing overhead is added by the MAC when computing airtime.
  std::uint32_t size_bytes = 0;
  MacHeader mac;
  IpHeader ip;
  std::variant<std::monostate, TcpHeader, AodvMessage> l4;

  // Layer discipline (debug builds): a layer must only read the header it
  // negotiated — std::get would throw eventually, but the DCHECK names the
  // violating call site instead of unwinding to a generic handler.
  TcpHeader& tcp() {
    MUZHA_DCHECK(has_tcp(), "layer discipline: packet carries no TCP header");
    return std::get<TcpHeader>(l4);
  }
  const TcpHeader& tcp() const {
    MUZHA_DCHECK(has_tcp(), "layer discipline: packet carries no TCP header");
    return std::get<TcpHeader>(l4);
  }
  bool has_tcp() const { return std::holds_alternative<TcpHeader>(l4); }

  AodvMessage& aodv() {
    MUZHA_DCHECK(has_aodv(), "layer discipline: packet carries no AODV message");
    return std::get<AodvMessage>(l4);
  }
  const AodvMessage& aodv() const {
    MUZHA_DCHECK(has_aodv(), "layer discipline: packet carries no AODV message");
    return std::get<AodvMessage>(l4);
  }
  bool has_aodv() const { return std::holds_alternative<AodvMessage>(l4); }
};

// Packets are pool-allocated: the deleter returns the object to the calling
// thread's PacketArena (src/pkt/packet_arena.h) instead of the heap, so the
// clone-per-receiver channel path and the MAC retransmit path recycle
// storage through a free list. The deleter is stateless, so PacketPtr stays
// pointer-sized and inline-callback captures are unaffected.
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;  // defined in packet_arena.cc
};
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

// Allocates a default-initialised packet (uid 0) from the thread's arena —
// the MAC uses this for control frames; tests use it for hand-built frames.
PacketPtr alloc_packet();

// Allocates a packet with a fresh uid. `uid_counter` is owned by the caller
// (normally the Node or test); there is no global counter.
PacketPtr make_packet(std::uint64_t& uid_counter);

// Deep copy with the same uid (a broadcast's copies are "the same packet").
PacketPtr clone_packet(const Packet& p);

// Human-readable one-line summary for tracing.
const char* mac_frame_name(MacFrameType t);

}  // namespace muzha
