// Uniform-grid spatial index over attached PHY positions.
//
// Cells are squares of side `cell_size` (the channel uses the 550 m
// carrier-sense range). Because the cell side equals the maximum delivery
// radius, every receiver within range of a transmitter sits in the 3x3 cell
// neighborhood of the transmitter's cell: two points within `cell_size` of
// each other have per-axis deltas <= cell_size, so their cell coordinates
// differ by at most 1 per axis. gather() therefore visits at most 9 cells —
// O(neighbors) instead of O(attached PHYs) per transmission.
//
// Determinism contract: gather() returns candidates in an unspecified order;
// the channel sorts them by their monotonically increasing attach-order key,
// which restores exactly the brute-force scan order (the phys_ vector is in
// attach order and detach preserves relative order). gather() copies each
// owner's live position() doubles into the output entries — the same loads a
// brute-force scan performs — so distance() computes bit-identically to it.
//
// Mobility contract: a move that stays inside its current cell requires NO
// grid update at all. The owner's Item caches the cell coordinates it is
// bucketed under plus the cell's interior bounding box, so same_cell()
// answers "would this move re-bucket?" from the Item alone — four compares
// in the common case, falling back to the exact floor-divide only near a
// cell edge, and never touching grid memory. Only cell-crossing moves call
// move(). Stored entry positions may therefore be stale — only the
// bucketing is authoritative, which is why gather() reads live positions.
//
// The cell table is open-addressed with linear probing and never deletes a
// cell (an emptied cell keeps its slot), so probe chains stay valid without
// tombstones. The table is only ever accessed by key lookup — iteration
// order never reaches simulation state.
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
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  // Interior-box shrink in meters for Item's divide-free same_cell() fast
  // path. Must exceed the combined rounding error of coord_of()'s division
  // and the cx*cell_size bound computation — for cell coordinates up to
  // ~2e4 (a 10,000 km field at 550 m cells) that error is < 1e-11 m, so
  // 1e-6 m leaves four orders of magnitude of headroom while excluding a
  // vanishing sliver of each cell from the fast path.
  static constexpr double kEdgeSlack = 1e-6;

  // Backpointer from an indexed PHY to its entry, held by the owner and
  // kept current by the grid across swap-and-pop removals and rehashes.
  // Caches the cell *coordinates* plus a conservative interior bounding box
  // so the owner can test same_cell() without touching grid memory — and,
  // in the common case, without a divide.
  struct Item {
    std::uint32_t cell = kNoCell;
    std::uint32_t slot = 0;
    std::int64_t cx = 0;  // cell coordinates this item is bucketed under
    std::int64_t cy = 0;
    // Strict interior of the cell, shrunk by kEdgeSlack on every side: a
    // position inside this box is provably in cell (cx, cy) under
    // coord_of()'s floating-point rounding (the slack dwarfs the division's
    // 1-ulp error at any coordinate the simulator produces). Positions at or
    // near the edge fall back to the exact coord_of() test.
    double x_lo = 0.0, x_hi = -1.0;
    double y_lo = 0.0, y_hi = -1.0;
    bool valid() const { return cell != kNoCell; }
  };

  struct Entry {
    Position pos;          // owner's position doubles; may be STALE in
                           // storage (see mobility contract above) — gather()
                           // emits entries refreshed from phy->position()
    std::uint64_t order;   // channel attach-order key (monotonic, unique)
    WirelessPhy* phy;
    Item* backref;         // -> the owner's Item, rewritten when we move it
  };

  explicit SpatialGrid(Meters cell_size);

  // Inserts `phy` and records its location in *backref.
  void insert(WirelessPhy* phy, Position pos, std::uint64_t order,
              Item* backref);

  // Removes the entry *backref points at (no-op when invalid) and
  // invalidates *backref.
  void remove(Item* backref);

  // Repositions the entry, migrating it between cells when the new position
  // crosses a cell boundary. Callers on the hot mobility path should gate
  // this on !same_cell() — an in-cell move needs no grid update at all.
  void move(Item* backref, Position pos);

  // True when `pos` buckets into the cell the item currently occupies, i.e.
  // a move to `pos` would not re-bucket. Pure function of the Item and the
  // cell size: no grid memory is read. The interior-box compares answer the
  // common case divide-free; edge-proximate positions (within kEdgeSlack of
  // a boundary) take the exact coord_of() path, so the answer always matches
  // what insert()/move() would compute.
  bool same_cell(const Item& item, Position pos) const {
    if (pos.x > item.x_lo && pos.x < item.x_hi && pos.y > item.y_lo &&
        pos.y < item.y_hi) {
      return true;
    }
    return coord_of(pos.x) == item.cx && coord_of(pos.y) == item.cy;
  }

  // Appends every entry in the 3x3 cell neighborhood of `center` to `out`
  // (which is not cleared). Order is unspecified — sort by Entry::order.
  void gather(Position center, std::vector<Entry>& out) const;

  std::size_t size() const { return entries_; }

 private:
  struct Cell {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    bool used = false;
    std::vector<Entry> entries;
  };

  // Inline: same_cell() sits on the per-tick mobility path.
  std::int64_t coord_of(double v) const {
    return static_cast<std::int64_t>(std::floor(v / cell_size_));
  }
  // Linear-probe lookup; returns kNoCell when the cell does not exist.
  std::uint32_t find_cell(std::int64_t cx, std::int64_t cy) const;
  // Lookup-or-create; may rehash (which rewrites every entry backref).
  std::uint32_t obtain_cell(std::int64_t cx, std::int64_t cy);
  void rehash(std::size_t new_buckets);
  static std::size_t bucket_hash(std::int64_t cx, std::int64_t cy);

  double cell_size_;
  std::vector<Cell> cells_;  // power-of-two bucket count
  std::size_t used_cells_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace muzha
