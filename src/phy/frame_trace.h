// MAC-visible frame trace: one FNV-1a hash over what the stations did on
// the air.
//
// A FrameTrace folds three kinds of record, in the order the run produces
// them:
//   - every transmission start: time, node, MAC frame type, MAC sequence;
//   - every frame a PHY hands its MAC: time, node, corrupted;
//   - every MAC retry-limit drop: time, node, next hop.
// Carrier edges are left out on purpose: a MAC that holds no frame acts on
// none, so an engine may skip them without changing anything a station does.
// Two runs with equal hashes sent, received and dropped the same frames at
// the same instants in the same order.
//
// The hook is off by default: Channel carries a null FrameTrace pointer,
// and each call site (WirelessPhy::start_tx, the PHY's hand-off to its MAC,
// Mac80211's retry-limit drop) costs one pointer test. Install one with
// Channel::set_frame_trace before a run to hash it.
#pragma once

#include <cstdint>

#include "pkt/packet.h"
#include "sim/sim_time.h"

namespace muzha {

class FrameTrace {
 public:
  void tx_start(SimTime t, NodeId node, MacFrameType type,
                std::uint16_t mac_seq) {
    fold(kTxStart, t, node);
    fold(static_cast<std::uint64_t>(type));
    fold(mac_seq);
  }
  void rx(SimTime t, NodeId node, bool corrupted) {
    fold(kRx, t, node);
    fold(corrupted ? 1 : 0);
  }
  void retry_drop(SimTime t, NodeId node, NodeId next_hop) {
    fold(kRetryDrop, t, node);
    fold(next_hop);
  }

  std::uint64_t hash() const { return hash_; }

 private:
  enum Kind : std::uint64_t { kTxStart = 1, kRx = 2, kRetryDrop = 3 };

  void fold(Kind kind, SimTime t, NodeId node) {
    fold(kind);
    fold(static_cast<std::uint64_t>(t.ns()));
    fold(node);
  }
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }

  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace muzha
