#include "phy/spatial_grid.h"

#include "phy/position.h"
#include "phy/wireless_phy.h"
#include "sim/assert.h"
#include "sim/units.h"

namespace muzha {

SpatialGrid::SpatialGrid(Meters cell_size)
    : cell_size_(cell_size.value()), cells_(kInitialBuckets) {
  MUZHA_ASSERT(cell_size_ > 0.0, "SpatialGrid cell size must be positive");
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
  }
}

void SpatialGrid::insert(CellKey cell, std::uint64_t order, WirelessPhy* phy) {
  cells_[obtain_cell(cell.cx, cell.cy)].entries.push_back(Filed{order, phy});
}

void SpatialGrid::remove(CellKey cell, const WirelessPhy* phy) {
  std::uint32_t ci = find_cell(cell.cx, cell.cy);
  MUZHA_ASSERT(ci != kNoCell, "SpatialGrid::remove: PHY not filed here");
  std::vector<Filed>& filed = cells_[ci].entries;
  std::size_t i = 0;
  while (i < filed.size() && filed[i].phy != phy) ++i;
  MUZHA_ASSERT(i < filed.size(), "SpatialGrid::remove: PHY not filed here");
  filed[i] = filed.back();  // swap-pop; order within a cell is irrelevant
  filed.pop_back();
}

void SpatialGrid::gather(Position center, Meters range,
                         std::vector<Entry>& out) const {
  CellKey c = cell_of(center);
  for (std::int64_t dy = -1; dy <= 1; ++dy) {
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      std::uint32_t ci = find_cell(c.cx + dx, c.cy + dy);
      if (ci == kNoCell) continue;
      for (const Filed& f : cells_[ci].entries) {
        Meters d = distance(center, f.phy->position());
        if (d <= range) out.push_back(Entry{d, f.order, f.phy});
      }
    }
  }
}

}  // namespace muzha
