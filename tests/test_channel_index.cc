// Differential tests: the spatial-index channel against the brute-force
// reference scan.
//
// Two identical worlds are built — same seed, same node positions, same
// scripted transmissions and mobility — one over ChannelMode::kSpatialIndex
// and one over kBruteForce. Every observable the channel produces (carrier
// busy/idle transitions, decoded frames, corruption flags, and the order in
// which all of it happens) must match event for event. The brute-force scan
// is the oracle: anything the grid gets wrong — a missed boundary receiver,
// a stale cell after a move, a candidate visited out of attach order (which
// would permute random-loss RNG draws) — shows up as a log diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "phy/channel.h"
#include "phy/spatial_grid.h"
#include "phy/wireless_phy.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace muzha {
namespace {

// One observable event, in the order the simulation produced it.
struct LogEvent {
  std::int64_t t_ns;
  NodeId phy;
  enum Kind : std::uint8_t { kCarrier, kRx } kind;
  bool flag;          // kCarrier: busy; kRx: corrupted
  std::uint64_t uid;  // kRx with a decodable frame: packet uid (0 otherwise)

  friend bool operator==(const LogEvent&, const LogEvent&) = default;
};

// A full simulation world over one channel mode.
class World {
 public:
  World(ChannelMode mode, std::uint64_t seed,
        const std::vector<Position>& positions, double error_rate)
      : sim_(seed), channel_(sim_, PhyParams{}, mode) {
    channel_.set_loss_rate(Probability(error_rate));
    phys_.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      phys_.push_back(std::make_unique<WirelessPhy>(
          sim_, channel_, static_cast<NodeId>(i), positions[i]));
      WirelessPhy* phy = phys_.back().get();
      NodeId id = static_cast<NodeId>(i);
      phy->set_channel_state_callback([this, id](bool busy) {
        log_.push_back({sim_.now().ns(), id, LogEvent::kCarrier, busy, 0});
      });
      phy->set_rx_callback([this, id](PacketPtr pkt, bool corrupted) {
        log_.push_back({sim_.now().ns(), id, LogEvent::kRx, corrupted,
                        pkt ? pkt->uid : 0});
      });
    }
  }

  // Schedules a broadcast data transmission at `t`; skipped (identically in
  // both worlds, since their states match) when the node is mid-TX.
  void transmit_at(SimTime t, std::size_t node, std::uint32_t bytes) {
    sim_.schedule_at(t, [this, node, bytes] {
      WirelessPhy* phy = phys_[node].get();
      if (phy->transmitting()) return;
      PacketPtr p = alloc_packet();
      p->uid = ++uid_counter_;
      p->size_bytes = bytes;
      p->mac.type = MacFrameType::kData;
      p->mac.src = phy->id();
      p->mac.dst = kBroadcastId;
      phy->start_tx(std::move(p), false);
    });
  }

  void move_at(SimTime t, std::size_t node, Position pos) {
    sim_.schedule_at(t, [this, node, pos] {
      phys_[node]->set_position(pos);
    });
  }

  void detach_at(SimTime t, std::size_t node) {
    sim_.schedule_at(t, [this, node] { channel_.detach(*phys_[node]); });
  }

  // Sets whether `node`'s owner needs idle edges, as a MAC taking or
  // finishing a frame does.
  void set_needs_at(SimTime t, std::size_t node, bool needs) {
    sim_.schedule_at(t, [this, node, needs] {
      phys_[node]->set_needs_idle_edges(needs);
    });
  }

  // Appends every PHY's collisions() to collision_samples() and its
  // cumulative_busy_time() to busy_samples() at `t`. Collisions are read
  // first, so that they must catch up on their own.
  void sample_at(SimTime t) {
    sim_.schedule_at(t, [this] {
      for (auto& phy : phys_) {
        collision_samples_.push_back(phy->collisions());
        busy_samples_.push_back(phy->cumulative_busy_time().ns());
      }
    });
  }

  void run_until(SimTime t) { sim_.run_until(t); }

  const std::vector<LogEvent>& log() const { return log_; }
  const std::vector<std::int64_t>& busy_samples() const {
    return busy_samples_;
  }
  const std::vector<std::uint64_t>& collision_samples() const {
    return collision_samples_;
  }
  std::vector<std::uint64_t> collisions() const {
    std::vector<std::uint64_t> out;
    for (const auto& phy : phys_) out.push_back(phy->collisions());
    return out;
  }
  std::uint64_t events() const { return sim_.events_executed(); }

 private:
  Simulator sim_;
  Channel channel_;
  std::vector<std::unique_ptr<WirelessPhy>> phys_;
  std::vector<LogEvent> log_;
  std::vector<std::int64_t> busy_samples_;
  std::vector<std::uint64_t> collision_samples_;
  std::uint64_t uid_counter_ = 0;
};

void expect_logs_identical(const World& index, const World& brute) {
  const auto& a = index.log();
  const auto& b = brute.log();
  ASSERT_EQ(a.size(), b.size()) << "delivery event counts diverge";
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i] == b[i])
        << "event " << i << " diverges: index saw t=" << a[i].t_ns << " phy "
        << a[i].phy << " kind " << static_cast<int>(a[i].kind) << " flag "
        << a[i].flag << " uid " << a[i].uid << "; brute saw t=" << b[i].t_ns
        << " phy " << b[i].phy << " kind " << static_cast<int>(b[i].kind)
        << " flag " << b[i].flag << " uid " << b[i].uid;
  }
}

// Applies the same randomized script to both worlds and compares.
void run_differential(const std::vector<Position>& positions,
                      std::uint64_t seed, double error_rate, int transmissions,
                      int moves, Meters field_side) {
  World index(ChannelMode::kSpatialIndex, seed, positions, error_rate);
  World brute(ChannelMode::kBruteForce, seed, positions, error_rate);

  // Script randomness is separate from both worlds' simulation RNGs.
  Rng script(seed ^ 0x5C819Cull);
  SimTime horizon = SimTime::from_ms(200);
  for (int i = 0; i < transmissions; ++i) {
    SimTime t = SimTime::from_ns(script.uniform_int(0, horizon.ns()));
    std::size_t node = static_cast<std::size_t>(
        script.uniform_int(0, static_cast<std::int64_t>(positions.size()) - 1));
    std::uint32_t bytes =
        static_cast<std::uint32_t>(script.uniform_int(40, 1500));
    index.transmit_at(t, node, bytes);
    brute.transmit_at(t, node, bytes);
  }
  for (int i = 0; i < moves; ++i) {
    SimTime t = SimTime::from_ns(script.uniform_int(0, horizon.ns()));
    std::size_t node = static_cast<std::size_t>(
        script.uniform_int(0, static_cast<std::int64_t>(positions.size()) - 1));
    Position pos{script.uniform(0.0, field_side.value()),
                 script.uniform(0.0, field_side.value())};
    index.move_at(t, node, pos);
    brute.move_at(t, node, pos);
  }
  index.run_until(horizon + SimTime::from_ms(50));
  brute.run_until(horizon + SimTime::from_ms(50));
  expect_logs_identical(index, brute);
}

std::vector<Position> random_positions(int n, Meters side, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Position> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back({rng.uniform(0.0, side.value()),
                   rng.uniform(0.0, side.value())});
  }
  return out;
}

TEST(ChannelIndexDifferential, RandomizedDenseField) {
  // ~2 CS ranges square: most nodes hear most transmissions.
  run_differential(random_positions(40, Meters(1200.0), 7), 7, 0.0,
                   /*transmissions=*/80, /*moves=*/0, Meters(1200.0));
}

TEST(ChannelIndexDifferential, RandomizedSparseFieldWithMobility) {
  // ~6 CS ranges square: cells matter; nodes roam across cell boundaries
  // mid-run.
  run_differential(random_positions(60, Meters(3500.0), 21), 21, 0.0,
                   /*transmissions=*/120, /*moves=*/150, Meters(3500.0));
}

TEST(ChannelIndexDifferential, RandomizedWithErrorModel) {
  // Random loss draws once per decodable receiver, in delivery order; a
  // permuted candidate order would de-synchronise the corruption pattern
  // even if the delivery *set* matched.
  run_differential(random_positions(50, Meters(2000.0), 33), 33, 0.3,
                   /*transmissions=*/100, /*moves=*/60, Meters(2000.0));
}

TEST(ChannelIndexDifferential, ExactBoundaryDistances) {
  PhyParams params;
  double rx = params.rx_range.value();  // 250
  double cs = params.cs_range.value();  // 550
  std::vector<Position> positions{
      {0.0, 0.0},        // transmitter
      {rx, 0.0},         // exactly decode range: must decode
      {rx + 1e-9, 0.0},  // just past decode range: energy only
      {cs, 0.0},         // exactly CS range: energy only
      {cs + 1e-9, 0.0},  // just past CS range: silent
      {cs - 1e-9, 0.0},  // just inside CS range, same cell edge
      {-cs, 0.0},        // exactly CS range on the negative side
      {cs, cs},          // corner cell, out of range (dist = cs*sqrt(2))
      {0.0, cs},         // exactly CS range straight up
  };
  World index(ChannelMode::kSpatialIndex, 3, positions, 0.0);
  World brute(ChannelMode::kBruteForce, 3, positions, 0.0);
  for (World* w : {&index, &brute}) {
    w->transmit_at(SimTime::from_us(10), 0, 500);
    w->run_until(SimTime::from_ms(20));
  }
  expect_logs_identical(index, brute);

  // Spot-check the semantics on the index side, not just agreement: node 1
  // decoded, node 4 and node 7 heard nothing.
  int rx_events = 0;
  bool node1_rx = false, node4_touched = false, node7_touched = false;
  for (const LogEvent& e : index.log()) {
    if (e.kind == LogEvent::kRx) {
      ++rx_events;
      if (e.phy == 1) node1_rx = !e.flag;
    }
    if (e.phy == 4) node4_touched = true;
    if (e.phy == 7) node7_touched = true;
  }
  EXPECT_EQ(rx_events, 1);  // only the exactly-at-rx_range node decodes
  EXPECT_TRUE(node1_rx);
  EXPECT_FALSE(node4_touched);
  EXPECT_FALSE(node7_touched);
}

TEST(ChannelIndexDifferential, CellEdgePositions) {
  PhyParams params;
  double cell = params.cs_range.value();  // cell side == 550
  // Nodes pinned to cell-boundary coordinates, where floor(x/cell) is most
  // sensitive: origin, exact edges, negative coordinates.
  std::vector<Position> positions{
      {0.0, 0.0},
      {cell, 0.0},
      {2.0 * cell, 0.0},       // two cells over: outside CS of node 0
      {-cell, 0.0},
      {cell, cell},
      {-0.0, -0.0},            // negative zero must land with positive zero
      {cell - 1e-12, cell - 1e-12},
  };
  run_differential(positions, 9, 0.0, /*transmissions=*/30, /*moves=*/40,
                   Meters(2.0 * cell));
}

TEST(ChannelIndexDifferential, MovesFarOutAndBack) {
  // A node leaves the populated region entirely (its own distant cell) and
  // returns; deliveries must track both transitions.
  std::vector<Position> positions{{0.0, 0.0}, {100.0, 0.0}, {200.0, 0.0}};
  World index(ChannelMode::kSpatialIndex, 5, positions, 0.0);
  World brute(ChannelMode::kBruteForce, 5, positions, 0.0);
  for (World* w : {&index, &brute}) {
    w->transmit_at(SimTime::from_ms(1), 0, 300);
    w->move_at(SimTime::from_ms(10), 1, {50'000.0, 50'000.0});
    w->transmit_at(SimTime::from_ms(20), 0, 300);
    w->move_at(SimTime::from_ms(30), 1, {100.0, 0.0});
    w->transmit_at(SimTime::from_ms(40), 0, 300);
    w->run_until(SimTime::from_ms(60));
  }
  expect_logs_identical(index, brute);
  // Sanity on the index side: node 1 decoded the 1st and 3rd frame only.
  int node1_rx = 0;
  for (const LogEvent& e : index.log()) {
    if (e.kind == LogEvent::kRx && e.phy == 1 && !e.flag) ++node1_rx;
  }
  EXPECT_EQ(node1_rx, 2);
}

TEST(ChannelIndexDifferential, InCellMovesCrossRangeBoundaries) {
  // Every move here stays inside the mover's 550 m cell, so the PHY is never
  // re-filed — delivery must still track the live position as it crosses the
  // decode (250 m) and carrier-sense (550 m... not reachable in-cell, but the
  // rx edge is) boundaries relative to the transmitter. A position recorded
  // when the PHY was filed would freeze node 1's receptions at the initial
  // 100 m distance.
  std::vector<Position> positions{{10.0, 10.0}, {110.0, 10.0}};
  World index(ChannelMode::kSpatialIndex, 13, positions, 0.0);
  World brute(ChannelMode::kBruteForce, 13, positions, 0.0);
  for (World* w : {&index, &brute}) {
    w->transmit_at(SimTime::from_ms(1), 0, 300);   // 100 m: decodes
    w->move_at(SimTime::from_ms(10), 1, {340.0, 10.0});
    w->transmit_at(SimTime::from_ms(20), 0, 300);  // 330 m: energy only
    w->move_at(SimTime::from_ms(30), 1, {220.0, 10.0});
    w->transmit_at(SimTime::from_ms(40), 0, 300);  // 210 m: decodes again
    w->run_until(SimTime::from_ms(60));
  }
  expect_logs_identical(index, brute);
  int node1_rx = 0;
  for (const LogEvent& e : index.log()) {
    if (e.kind == LogEvent::kRx && e.phy == 1 && !e.flag) ++node1_rx;
  }
  EXPECT_EQ(node1_rx, 2);
}

TEST(ChannelIndexDifferential, DetachAfterCellChange) {
  // Node 1 moves into the next cell (re-filed there), moves again inside it,
  // and is detached mid-run: detach must find it in the cell it moved into.
  // The remaining nodes, two of them within decode range of node 1's last
  // position, keep transmitting; none of it may reach node 1.
  std::vector<Position> positions{
      {100.0, 100.0}, {200.0, 100.0}, {300.0, 100.0},  // cell (0, 0)
      {650.0, 100.0}, {800.0, 100.0},                  // cell (1, 0)
  };
  World index(ChannelMode::kSpatialIndex, 17, positions, 0.0);
  World brute(ChannelMode::kBruteForce, 17, positions, 0.0);
  for (World* w : {&index, &brute}) {
    w->transmit_at(SimTime::from_ms(1), 0, 400);
    w->move_at(SimTime::from_ms(10), 1, {700.0, 150.0});  // into cell (1, 0)
    w->transmit_at(SimTime::from_ms(15), 4, 400);
    w->move_at(SimTime::from_ms(20), 1, {750.0, 300.0});  // same cell
    w->transmit_at(SimTime::from_ms(25), 3, 400);
    w->detach_at(SimTime::from_ms(30), 1);
    const std::size_t remaining[] = {0, 2, 3, 4};
    for (int i = 0; i < 8; ++i) {
      w->transmit_at(SimTime::from_ms(40 + 10 * i), remaining[i % 4], 400);
    }
    w->run_until(SimTime::from_ms(130));
  }
  expect_logs_identical(index, brute);
  // Sanity on the index side: node 1 decoded the three frames sent before
  // its detach (from cell (0, 0), then twice from cell (1, 0)) and saw
  // nothing after it.
  int node1_rx = 0, node1_after_detach = 0;
  for (const LogEvent& e : index.log()) {
    if (e.phy != 1) continue;
    if (e.kind == LogEvent::kRx && !e.flag) ++node1_rx;
    if (e.t_ns >= SimTime::from_ms(30).ns()) ++node1_after_detach;
  }
  EXPECT_EQ(node1_rx, 3);
  EXPECT_EQ(node1_after_detach, 0);
}

// ---------------------------------------------------------------------------
// Signal records against scheduled ends.
//
// One script runs in two worlds. In `edges` every PHY needs idle edges all
// run, so every signal start and end is an event. In `records` each PHY
// starts without the need and flips it at scripted instants. While the need
// is off, the channel files sensed-only starts as pending records and the
// ends of signals the PHY does not decode are kept as records; when the
// need comes back, pending starts are scheduled, or ends scheduled
// mid-signal. Records must change nothing but the edges nobody asked for:
// the rx log, every PHY's collisions and busy time, both sampled at
// scripted instants and collisions also at the end, and the carrier log
// inside the intervals where the need is on must all match, in the order
// the simulation produced them. Both worlds schedule the same flip events
// (always "on" in `edges`), so every other event keeps its seq.

// Per PHY, the sorted instants at which its need flips; it starts off.
struct NeedScript {
  std::vector<std::vector<std::int64_t>> flips;

  // True when `t_ns` lies strictly inside an interval where `phy` needs
  // idle edges; an edge at a flip's own instant may fall on either side.
  bool on_at(NodeId phy, std::int64_t t_ns) const {
    const std::vector<std::int64_t>& f = flips[phy];
    const auto after = std::upper_bound(f.begin(), f.end(), t_ns);
    if (after != f.begin() && *(after - 1) == t_ns) return false;
    return (after - f.begin()) % 2 == 1;
  }
};

std::vector<LogEvent> only(const std::vector<LogEvent>& log,
                           LogEvent::Kind kind, const NeedScript* needs) {
  std::vector<LogEvent> out;
  for (const LogEvent& e : log) {
    if (e.kind != kind) continue;
    if (needs != nullptr && !needs->on_at(e.phy, e.t_ns)) continue;
    out.push_back(e);
  }
  return out;
}

void run_record_differential(const std::vector<Position>& positions,
                             std::uint64_t seed, double error_rate,
                             int transmissions, int flips_per_phy) {
  World edges(ChannelMode::kSpatialIndex, seed, positions, error_rate);
  World records(ChannelMode::kSpatialIndex, seed, positions, error_rate);
  Rng script(seed ^ 0x2EC02D5ull);
  const SimTime horizon = SimTime::from_ms(200);
  for (int i = 0; i < transmissions; ++i) {
    SimTime t = SimTime::from_ns(script.uniform_int(0, horizon.ns()));
    std::size_t node = static_cast<std::size_t>(
        script.uniform_int(0, static_cast<std::int64_t>(positions.size()) - 1));
    std::uint32_t bytes =
        static_cast<std::uint32_t>(script.uniform_int(40, 1500));
    edges.transmit_at(t, node, bytes);
    records.transmit_at(t, node, bytes);
  }
  NeedScript needs;
  for (std::size_t phy = 0; phy < positions.size(); ++phy) {
    edges.set_needs_at(SimTime::zero(), phy, true);
    records.set_needs_at(SimTime::zero(), phy, false);
    std::vector<std::int64_t> flips;
    for (int i = 0; i < flips_per_phy; ++i) {
      flips.push_back(script.uniform_int(1, horizon.ns()));
    }
    std::sort(flips.begin(), flips.end());
    for (std::size_t i = 0; i < flips.size(); ++i) {
      edges.set_needs_at(SimTime::from_ns(flips[i]), phy, true);
      records.set_needs_at(SimTime::from_ns(flips[i]), phy, i % 2 == 0);
    }
    needs.flips.push_back(std::move(flips));
  }
  for (SimTime t = SimTime::from_ns(1'234); t < horizon;
       t += SimTime::from_ns(4'567'891)) {
    edges.sample_at(t);
    records.sample_at(t);
  }
  edges.run_until(horizon + SimTime::from_ms(50));
  records.run_until(horizon + SimTime::from_ms(50));

  // Records were kept: fewer events ran.
  EXPECT_LT(records.events(), edges.events());
  EXPECT_EQ(records.collisions(), edges.collisions());
  EXPECT_EQ(records.busy_samples(), edges.busy_samples());
  EXPECT_EQ(records.collision_samples(), edges.collision_samples());
  const std::vector<LogEvent> rx = only(edges.log(), LogEvent::kRx, nullptr);
  EXPECT_GT(rx.size(), 0u);
  EXPECT_TRUE(only(records.log(), LogEvent::kRx, nullptr) == rx)
      << "the rx logs diverge";
  const std::vector<LogEvent> carrier =
      only(edges.log(), LogEvent::kCarrier, &needs);
  const std::vector<LogEvent> kept =
      only(records.log(), LogEvent::kCarrier, &needs);
  ASSERT_EQ(kept.size(), carrier.size()) << "carrier edge counts diverge";
  for (std::size_t i = 0; i < kept.size(); ++i) {
    ASSERT_TRUE(kept[i] == carrier[i])
        << "carrier edge " << i << " diverges: records saw t=" << kept[i].t_ns
        << " phy " << kept[i].phy << " busy " << kept[i].flag
        << "; edges saw t=" << carrier[i].t_ns << " phy " << carrier[i].phy
        << " busy " << carrier[i].flag;
  }
}

TEST(SignalRecordDifferential, EquidistantChain) {
  // 200 m apart: each node decodes its neighbours, senses the next ones
  // out and hears nothing farther. A transmission reaches its two
  // neighbours, and its two sensed-only receivers, at one instant with one
  // lead, so their starts and ends tie.
  // The load is light, so those receivers often go idle together.
  std::vector<Position> chain;
  for (int i = 0; i < 12; ++i) chain.push_back({200.0 * i, 0.0});
  for (std::uint64_t seed : {41, 42, 43}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_record_differential(chain, seed, 0.0, /*transmissions=*/60,
                            /*flips_per_phy=*/100);
  }
}

TEST(SignalRecordDifferential, RandomizedFieldWithLoss) {
  run_record_differential(random_positions(40, Meters(1500.0), 43), 43, 0.2,
                          /*transmissions=*/120, /*flips_per_phy=*/40);
}

// ---------------------------------------------------------------------------
// SpatialGrid unit coverage: the 3x3 gather, removal from a cell, live
// positions and table rehash.

// Real PHYs for the grid unit tests: gather() reads each owner's live
// position, so entries must point at actual WirelessPhy objects. The channel
// runs in brute-force mode so these PHYs are not auto-indexed — each test
// owns its own standalone SpatialGrid and inserts into it directly.
class GridPhys {
 public:
  GridPhys() : sim_(1), channel_(sim_, PhyParams{}, ChannelMode::kBruteForce) {}

  WirelessPhy* make(Position pos) {
    phys_.push_back(std::make_unique<WirelessPhy>(
        sim_, channel_, static_cast<NodeId>(phys_.size()), pos));
    return phys_.back().get();
  }

 private:
  Simulator sim_;
  Channel channel_;
  std::vector<std::unique_ptr<WirelessPhy>> phys_;
};

// No range limit: gather() then returns the whole 3x3 neighborhood.
constexpr Meters kAnyRange(std::numeric_limits<double>::infinity());

std::vector<std::uint64_t> gathered_orders(const SpatialGrid& grid,
                                           Position center,
                                           Meters range = kAnyRange) {
  std::vector<SpatialGrid::Entry> out;
  grid.gather(center, range, out);
  std::vector<std::uint64_t> orders;
  orders.reserve(out.size());
  for (const auto& e : out) orders.push_back(e.order);
  std::sort(orders.begin(), orders.end());
  return orders;
}

TEST(ChannelIndexGrid, GatherCoversThreeByThreeNeighborhood) {
  GridPhys world;
  SpatialGrid grid(Meters(550.0));
  const Position pos[5] = {
      {0.0, 0.0},     // origin cell
      {549.0, 0.0},   // same cell
      {551.0, 0.0},   // east neighbor
      {-1.0, -1.0},   // southwest neighbor
      {1200.0, 0.0},  // two cells east
  };
  for (std::uint64_t i = 0; i < 5; ++i) {
    grid.insert(grid.cell_of(pos[i]), i, world.make(pos[i]));
  }
  EXPECT_EQ(gathered_orders(grid, {100.0, 100.0}),
            (std::vector<std::uint64_t>{0, 1, 2, 3}));
  // From the far cell, only its own 3x3 neighborhood is visible.
  EXPECT_EQ(gathered_orders(grid, {1200.0, 0.0}),
            (std::vector<std::uint64_t>{2, 4}));
  // A range cuts the neighborhood to a disc. The entry at (551, 0) lies
  // 649 m from (1200, 0); from the origin it is exactly 551 m away, so a
  // range of 551 m keeps it and one of 550 m drops it.
  EXPECT_EQ(gathered_orders(grid, {1200.0, 0.0}, Meters(550.0)),
            (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(gathered_orders(grid, {0.0, 0.0}, Meters(551.0)),
            (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(gathered_orders(grid, {0.0, 0.0}, Meters(550.0)),
            (std::vector<std::uint64_t>{0, 1, 3}));
}

TEST(ChannelIndexGrid, RemovingOneEntryLeavesTheRestOfItsCell) {
  GridPhys world;
  SpatialGrid grid(Meters(550.0));
  std::vector<WirelessPhy*> phys;
  for (std::uint64_t i = 0; i < 4; ++i) {
    Position p{10.0 * static_cast<double>(i), 0.0};
    phys.push_back(world.make(p));
    grid.insert(grid.cell_of(p), i, phys.back());
  }
  // Removing the first entry swap-pops the last into its place; that entry
  // must stay removable by name, and the middle two must stay filed.
  grid.remove(grid.cell_of(phys[0]->position()), phys[0]);
  EXPECT_EQ(gathered_orders(grid, {0.0, 0.0}),
            (std::vector<std::uint64_t>{1, 2, 3}));
  grid.remove(grid.cell_of(phys[3]->position()), phys[3]);
  EXPECT_EQ(gathered_orders(grid, {0.0, 0.0}),
            (std::vector<std::uint64_t>{1, 2}));
}

TEST(ChannelIndexGrid, GatherReturnsLivePositions) {
  // Cells store no position; gather() must measure from the owner's current
  // doubles (what a brute scan would read) after an in-cell move.
  GridPhys world;
  SpatialGrid grid(Meters(550.0));
  WirelessPhy* a = world.make({10.0, 10.0});
  grid.insert(grid.cell_of(a->position()), 0, a);
  a->set_position({540.0, 260.0});  // same cell: not re-filed
  ASSERT_TRUE(grid.cell_of(a->position()) == grid.cell_of({10.0, 10.0}));
  std::vector<SpatialGrid::Entry> out;
  grid.gather({100.0, 100.0}, Meters(550.0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dist, distance({100.0, 100.0}, {540.0, 260.0}));
  // The stale filing position would be 127 m away; the live one is 468 m.
  out.clear();
  grid.gather({100.0, 100.0}, Meters(300.0), out);
  EXPECT_TRUE(out.empty());
}

TEST(ChannelIndexGrid, TwoHundredCellsSurviveRehashes) {
  SpatialGrid grid(Meters(550.0));
  // 200 entries in 200 distinct cells forces multiple rehashes of the
  // initial 64-bucket table.
  constexpr int kN = 200;
  GridPhys world;
  std::vector<WirelessPhy*> phys;
  for (int i = 0; i < kN; ++i) {
    Position p{550.0 * 2.0 * i + 1.0, 0.0};
    phys.push_back(world.make(p));
    grid.insert(grid.cell_of(p), static_cast<std::uint64_t>(i), phys.back());
  }
  // Every cell must still be found: gather each entry's own neighborhood
  // (cells are 2 apart, so each sees only itself), then remove each entry
  // from its cell, which aborts if the cell or the entry is missing.
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(gathered_orders(grid, phys[i]->position()),
              (std::vector<std::uint64_t>{static_cast<std::uint64_t>(i)}));
  }
  for (int i = 0; i < kN; ++i) {
    grid.remove(grid.cell_of(phys[i]->position()), phys[i]);
    EXPECT_TRUE(gathered_orders(grid, phys[i]->position()).empty());
  }
}

}  // namespace
}  // namespace muzha
