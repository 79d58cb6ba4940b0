// Uniform-grid spatial index over attached PHYs.
//
// Cells are squares of side `cell_size` (the channel uses the 550 m
// carrier-sense range). Two points within `cell_size` of each other differ
// by at most 1 in each cell coordinate, so every receiver in range of a
// transmitter is filed in the 3x3 neighborhood of the transmitter's cell:
// gather() visits at most 9 cells, O(neighbors) per transmission.
//
// A cell holds only (attach order, PHY) pairs. The channel files each PHY
// under cell_of() its position and remembers that cell; it re-files the PHY
// only when a move changes the cell, and names the cell again to remove it.
// No removal or rehash has owner state to patch, and no cell stores a
// position that could go stale: gather() measures each candidate's distance
// from its owner's live position() doubles, the loads and the distance() a
// brute-force scan performs, and keeps only those within range. The channel
// sorts the survivors by attach order, which restores that scan's order, so
// delivery is bit-identical to it.
//
// The cell table is open-addressed with linear probing and never deletes a
// cell (an emptied cell keeps its slot), so probe chains stay valid without
// tombstones. It is only accessed by key lookup: its iteration order never
// reaches simulation state.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "phy/position.h"
#include "sim/units.h"

namespace muzha {

class WirelessPhy;

class SpatialGrid {
 public:
  // Integer cell coordinates: floor(x / cell_size), floor(y / cell_size).
  struct CellKey {
    std::int64_t cx = 0, cy = 0;
    friend bool operator==(CellKey, CellKey) = default;
  };

  // A gathered candidate, with its distance from the gather centre.
  struct Entry {
    Meters dist;
    std::uint64_t order;  // channel attach-order key (monotonic, unique)
    WirelessPhy* phy;
  };

  explicit SpatialGrid(Meters cell_size);

  CellKey cell_of(Position pos) const {
    return {static_cast<std::int64_t>(std::floor(pos.x / cell_size_)),
            static_cast<std::int64_t>(std::floor(pos.y / cell_size_))};
  }
  // Files `phy` under `cell`.
  void insert(CellKey cell, std::uint64_t order, WirelessPhy* phy);
  // Unfiles `phy` from `cell`, which must be the cell it is filed under.
  void remove(CellKey cell, const WirelessPhy* phy);
  // Appends every PHY filed in the 3x3 cell neighborhood of `center` that
  // lies within `range` of it (distance(center, position()) <= range) to
  // `out` (not cleared), in unspecified order.
  void gather(Position center, Meters range, std::vector<Entry>& out) const;

 private:
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialBuckets = 64;  // power of two

  struct Filed {
    std::uint64_t order;
    WirelessPhy* phy;
  };
  struct Cell {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    bool used = false;
    std::vector<Filed> entries;
  };

  // Linear-probe lookup; returns kNoCell when the cell does not exist.
  std::uint32_t find_cell(std::int64_t cx, std::int64_t cy) const;
  // Lookup-or-create; may rehash.
  std::uint32_t obtain_cell(std::int64_t cx, std::int64_t cy);
  void rehash(std::size_t new_buckets);
  static std::size_t bucket_hash(std::int64_t cx, std::int64_t cy);

  double cell_size_;
  std::vector<Cell> cells_;  // power-of-two bucket count
  std::size_t used_cells_ = 0;
};

}  // namespace muzha
