#include "phy/spatial_grid.h"

#include "phy/position.h"
#include "phy/wireless_phy.h"
#include "sim/assert.h"
#include "sim/units.h"

namespace muzha {

namespace {
constexpr std::size_t kInitialBuckets = 64;  // power of two
}  // namespace

SpatialGrid::SpatialGrid(Meters cell_size) : cell_size_(cell_size.value()) {
  MUZHA_ASSERT(cell_size_ > 0.0, "SpatialGrid cell size must be positive");
  cells_.resize(kInitialBuckets);
}

std::size_t SpatialGrid::bucket_hash(std::int64_t cx, std::int64_t cy) {
  // SplitMix64-style mix of the two coordinates; fully deterministic (no
  // pointers, no ASLR) so bucket layout is identical across runs.
  std::uint64_t h = static_cast<std::uint64_t>(cx) * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<std::uint64_t>(cy) + 0xBF58476D1CE4E5B9ull + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 29;
  return static_cast<std::size_t>(h);
}

std::uint32_t SpatialGrid::find_cell(std::int64_t cx, std::int64_t cy) const {
  std::size_t mask = cells_.size() - 1;
  std::size_t i = bucket_hash(cx, cy) & mask;
  while (true) {
    const Cell& c = cells_[i];
    if (!c.used) return kNoCell;
    if (c.cx == cx && c.cy == cy) return static_cast<std::uint32_t>(i);
    i = (i + 1) & mask;
  }
}

std::uint32_t SpatialGrid::obtain_cell(std::int64_t cx, std::int64_t cy) {
  // Grow at 70% occupancy so probe chains stay short; cells are never
  // deleted, so occupancy only rises.
  if ((used_cells_ + 1) * 10 > cells_.size() * 7) rehash(cells_.size() * 2);
  std::size_t mask = cells_.size() - 1;
  std::size_t i = bucket_hash(cx, cy) & mask;
  while (true) {
    Cell& c = cells_[i];
    if (!c.used) {
      c.used = true;
      c.cx = cx;
      c.cy = cy;
      ++used_cells_;
      return static_cast<std::uint32_t>(i);
    }
    if (c.cx == cx && c.cy == cy) return static_cast<std::uint32_t>(i);
    i = (i + 1) & mask;
  }
}

void SpatialGrid::rehash(std::size_t new_buckets) {
  std::vector<Cell> old = std::move(cells_);
  cells_.clear();
  cells_.resize(new_buckets);
  std::size_t mask = new_buckets - 1;
  for (Cell& oc : old) {
    if (!oc.used) continue;
    std::size_t i = bucket_hash(oc.cx, oc.cy) & mask;
    while (cells_[i].used) i = (i + 1) & mask;
    cells_[i] = std::move(oc);
    // The cell's entries moved wholesale: slots are unchanged, only the
    // bucket index in each owner's backref needs refreshing.
    for (Entry& e : cells_[i].entries) {
      e.backref->cell = static_cast<std::uint32_t>(i);
    }
  }
}

void SpatialGrid::insert(WirelessPhy* phy, Position pos, std::uint64_t order,
                         Item* backref) {
  MUZHA_DCHECK(!backref->valid(), "SpatialGrid::insert: item already indexed");
  std::int64_t cx = coord_of(pos.x);
  std::int64_t cy = coord_of(pos.y);
  std::uint32_t ci = obtain_cell(cx, cy);
  Cell& c = cells_[ci];
  backref->cell = ci;
  backref->slot = static_cast<std::uint32_t>(c.entries.size());
  backref->cx = cx;
  backref->cy = cy;
  backref->x_lo = static_cast<double>(cx) * cell_size_ + kEdgeSlack;
  backref->x_hi = static_cast<double>(cx + 1) * cell_size_ - kEdgeSlack;
  backref->y_lo = static_cast<double>(cy) * cell_size_ + kEdgeSlack;
  backref->y_hi = static_cast<double>(cy + 1) * cell_size_ - kEdgeSlack;
  c.entries.push_back(Entry{pos, order, phy, backref});
  ++entries_;
}

void SpatialGrid::remove(Item* backref) {
  if (!backref->valid()) return;
  Cell& c = cells_[backref->cell];
  std::uint32_t slot = backref->slot;
  MUZHA_DCHECK(slot < c.entries.size() &&
                   c.entries[slot].backref == backref,
               "SpatialGrid::remove: stale item");
  // Swap-and-pop; the displaced entry's owner learns its new slot.
  if (slot + 1 != c.entries.size()) {
    c.entries[slot] = c.entries.back();
    c.entries[slot].backref->slot = slot;
  }
  c.entries.pop_back();
  --entries_;
  *backref = Item{};
}

void SpatialGrid::move(Item* backref, Position pos) {
  MUZHA_DCHECK(backref->valid(), "SpatialGrid::move: item not indexed");
  Cell& c = cells_[backref->cell];
  Entry& e = c.entries[backref->slot];
  std::int64_t ncx = coord_of(pos.x);
  std::int64_t ncy = coord_of(pos.y);
  if (ncx == c.cx && ncy == c.cy) {
    // Same cell: refresh the stored doubles and stop. Hot mobility callers
    // avoid even this via same_cell(); direct move() calls stay correct.
    e.pos = pos;
    return;
  }
  WirelessPhy* phy = e.phy;
  std::uint64_t order = e.order;
  remove(backref);
  insert(phy, pos, order, backref);
}

void SpatialGrid::gather(Position center, std::vector<Entry>& out) const {
  std::int64_t ccx = coord_of(center.x);
  std::int64_t ccy = coord_of(center.y);
  for (std::int64_t dy = -1; dy <= 1; ++dy) {
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      std::uint32_t ci = find_cell(ccx + dx, ccy + dy);
      if (ci == kNoCell) continue;
      for (const Entry& e : cells_[ci].entries) {
        // Stored positions can be stale (in-cell moves skip the grid); emit
        // the owner's live doubles — the loads a brute-force scan performs.
        out.push_back(Entry{e.phy->position(), e.order, e.phy, nullptr});
      }
    }
  }
}

}  // namespace muzha
