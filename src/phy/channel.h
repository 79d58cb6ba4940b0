// Shared wireless channel.
//
// The channel knows every attached PHY and its position. A transmission
// reaches every PHY within carrier-sense range after per-receiver
// propagation delay. Receivers within decode range get the frame contents;
// receivers between decode and CS range only sense energy (which still
// interferes). The channel hands each arrival to the receiving PHY
// (WirelessPhy::arrive), which schedules the signal's start or keeps it as
// a record (phy/wireless_phy.h). The receiving PHY, not the channel,
// decides collision outcomes, because they depend on receiver state
// (half-duplex, already decoding, ...).
//
// Receiver lookup runs in one of two modes:
//  - kSpatialIndex (default): a uniform grid keyed on cs_range limits the
//    scan to the 3x3 cell neighborhood of the transmitter — O(neighbors) —
//    and drops candidates beyond cs_range as it gathers them. The rest are
//    sorted by attach-order key before delivery, so the event schedule (and
//    every random-loss RNG draw) is bit-identical to the brute-force scan.
//  - kBruteForce: the original linear scan over every attached PHY. Kept as
//    the oracle for the differential tests in test_channel_index.cc.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/frame_trace.h"
#include "phy/phy_params.h"
#include "phy/spatial_grid.h"
#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

class WirelessPhy;

enum class ChannelMode : std::uint8_t { kSpatialIndex, kBruteForce };

class Channel {
 public:
  Channel(Simulator& sim, PhyParams params,
          ChannelMode mode = ChannelMode::kSpatialIndex)
      : sim_(sim),
        params_(params),
        mode_(mode),
        grid_(params.cs_range) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  const PhyParams& params() const { return params_; }

  // Registers a PHY for delivery. Attaching a PHY twice is a bug (it would
  // receive every frame twice); MUZHA_DCHECKed.
  void attach(WirelessPhy& phy);

  // Unregisters a PHY (no-op when not attached). Called by ~WirelessPhy, so
  // a PHY may die before the channel without leaving a dangling pointer in
  // phys_ or the grid. Relative attach order of the survivors is preserved.
  void detach(WirelessPhy& phy);

  // Called by WirelessPhy::set_position to keep the spatial index current:
  // re-files the PHY when its position has left the cell it is filed under.
  void phy_moved(WirelessPhy& phy);

  std::size_t attached_count() const { return phys_.size(); }

  // Random loss: every decodable frame arrives corrupted with probability
  // `p`, independently of queueing (DESIGN.md "Random loss"). Default 0.
  void set_loss_rate(Probability p) { loss_rate_ = p; }

  // The MAC-visible trace every attached PHY and its MAC report to; null
  // (the default) turns tracing off. The trace must outlive the run.
  void set_frame_trace(FrameTrace* trace) { frame_trace_ = trace; }
  FrameTrace* frame_trace() const { return frame_trace_; }

  // Called by a transmitting PHY at TX start. `duration` is on-air time.
  void transmit(const WirelessPhy& src, const Packet& pkt, SimTime duration);

  // Statistics.
  std::uint64_t frames_corrupted_by_error() const {
    return frames_corrupted_by_error_;
  }

 private:
  // Shared per-receiver delivery tail of both transmit modes, for a
  // receiver `dist` <= cs_range away: copies the frame and draws its random
  // loss when it is decodable, then hands the arrival to the PHY. Both
  // modes compute `dist` as distance(src position, the receiver's live
  // position()), so it is bit-identical.
  void deliver(WirelessPhy* rx, Meters dist, const Packet& pkt,
               SimTime duration);

  Simulator& sim_;
  PhyParams params_;
  ChannelMode mode_;
  Probability loss_rate_;
  FrameTrace* frame_trace_ = nullptr;
  std::vector<WirelessPhy*> phys_;  // attach order; erase preserves order
  SpatialGrid grid_;
  std::vector<SpatialGrid::Entry> scratch_;  // gather buffer, reused
  std::uint64_t next_order_ = 0;
  std::uint64_t frames_corrupted_by_error_ = 0;
};

}  // namespace muzha
