#include "phy/channel.h"

#include <algorithm>

#include "phy/phy_params.h"
#include "phy/position.h"
#include "phy/spatial_grid.h"
#include "phy/wireless_phy.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/sim_time.h"
#include "sim/units.h"

namespace muzha {

void Channel::attach(WirelessPhy& phy) {
  MUZHA_DCHECK(!phy.channel_attached_,
               "Channel::attach: PHY attached twice (would receive every "
               "frame twice)");
  phy.channel_attached_ = true;
  phy.channel_order_ = next_order_++;
  phys_.push_back(&phy);
  if (mode_ == ChannelMode::kSpatialIndex) {
    phy.grid_cell_ = grid_.cell_of(phy.position());
    grid_.insert(phy.grid_cell_, phy.channel_order_, &phy);
  }
}

void Channel::detach(WirelessPhy& phy) {
  if (!phy.channel_attached_) return;
  phy.channel_attached_ = false;
  if (mode_ == ChannelMode::kSpatialIndex) grid_.remove(phy.grid_cell_, &phy);
  auto it = std::find(phys_.begin(), phys_.end(), &phy);
  MUZHA_ASSERT(it != phys_.end(), "Channel::detach: PHY not in phys_");
  phys_.erase(it);  // keeps the survivors in attach order
}

void Channel::phy_moved(WirelessPhy& phy) {
  if (!phy.channel_attached_ || mode_ != ChannelMode::kSpatialIndex) return;
  SpatialGrid::CellKey cell = grid_.cell_of(phy.position());
  if (cell == phy.grid_cell_) return;
  grid_.remove(phy.grid_cell_, &phy);
  grid_.insert(cell, phy.channel_order_, &phy);
  phy.grid_cell_ = cell;
}

void Channel::transmit(const WirelessPhy& src, const Packet& pkt,
                       SimTime duration) {
  Position sp = src.position();
  if (mode_ == ChannelMode::kBruteForce) {
    for (WirelessPhy* rx : phys_) {
      if (rx == &src) continue;
      Meters dist = distance(sp, rx->position());
      if (dist <= PhyParams::cs_range) deliver(rx, dist, pkt, duration);
    }
  } else {
    // Cell side == cs_range, so the 3x3 neighborhood is a superset of the
    // delivery disc, and gather() applies the exact range check before the
    // sort. Sorting by the attach-order key restores brute-force scan order,
    // which fixes both the schedule_in order and the random-loss RNG draw
    // order.
    scratch_.clear();
    grid_.gather(sp, PhyParams::cs_range, scratch_);
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SpatialGrid::Entry& a, const SpatialGrid::Entry& b) {
                return a.order < b.order;
              });
    for (const SpatialGrid::Entry& e : scratch_) {
      if (e.phy == &src) continue;
      deliver(e.phy, e.dist, pkt, duration);
    }
  }
}

void Channel::deliver(WirelessPhy* rx, Meters dist, const Packet& pkt,
                      SimTime duration) {
  bool decodable = dist <= PhyParams::rx_range;
  bool pre_corrupted = false;
  PacketPtr copy;
  if (decodable) {
    copy = clone_packet(pkt);
    // No draw at rate 0: chance(0) would still consume one.
    pre_corrupted =
        loss_rate_.value() > 0.0 && sim_.rng().chance(loss_rate_.value());
    if (pre_corrupted) ++frames_corrupted_by_error_;
  }
  rx->arrive(to_sim_time(dist / PhyParams::propagation), std::move(copy),
             pre_corrupted, duration, dist);
}

}  // namespace muzha
