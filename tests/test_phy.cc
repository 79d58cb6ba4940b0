#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "phy/channel.h"
#include "phy/wireless_phy.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {
namespace {

PacketPtr data_packet(std::uint32_t bytes, NodeId src = 0,
                      NodeId dst = kBroadcastId) {
  PacketPtr p = alloc_packet();
  p->size_bytes = bytes;
  p->mac.type = MacFrameType::kData;
  p->mac.src = src;
  p->mac.dst = dst;
  return p;
}

struct RxLog {
  int ok = 0;
  int corrupted = 0;
  PacketPtr last;
  void attach(WirelessPhy& phy) {
    phy.set_rx_callback([this](PacketPtr pkt, bool corr) {
      if (corr) {
        ++corrupted;
      } else {
        ++ok;
        last = std::move(pkt);
      }
    });
  }
};

class PhyTest : public ::testing::Test {
 protected:
  Simulator sim{1};
  PhyParams params;
  Channel channel{sim, params};
};

TEST_F(PhyTest, TxDurationIncludesPlcpAndRate) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  // 250 bytes at 2 Mbps = 1 ms + 192 us PLCP.
  EXPECT_EQ(a.tx_duration(Bytes(250), false), SimTime::from_us(1192));
  // Basic rate is 1 Mbps.
  EXPECT_EQ(a.tx_duration(Bytes(250), true), SimTime::from_us(2192));
}

TEST_F(PhyTest, DeliversWithinDecodeRange) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {250, 0});
  RxLog log;
  log.attach(b);
  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log.ok, 1);
  EXPECT_EQ(log.corrupted, 0);
  EXPECT_EQ(a.frames_sent(), 1u);
  EXPECT_EQ(b.frames_received_ok(), 1u);
}

TEST_F(PhyTest, EnergyOnlyBetweenDecodeAndCsRange) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {400, 0});  // 250 < d <= 550
  RxLog log;
  log.attach(b);
  bool saw_busy = false;
  b.set_channel_state_callback([&](bool busy) { saw_busy |= busy; });
  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log.ok, 0);
  EXPECT_EQ(log.corrupted, 0);
  EXPECT_TRUE(saw_busy);  // carrier sensed even though undecodable
}

TEST_F(PhyTest, SilentBeyondCsRange) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {600, 0});
  RxLog log;
  log.attach(b);
  bool saw_busy = false;
  b.set_channel_state_callback([&](bool busy) { saw_busy |= busy; });
  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log.ok + log.corrupted, 0);
  EXPECT_FALSE(saw_busy);
}

TEST_F(PhyTest, PropagationDelayAppliesPerReceiver) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {250, 0});
  SimTime rx_time;
  b.set_rx_callback([&](PacketPtr, bool) { rx_time = sim.now(); });
  a.start_tx(data_packet(100), false);
  sim.run();
  SimTime air = a.tx_duration(Bytes(100 + kMacDataOverheadBytes), false);
  SimTime prop = SimTime::from_seconds(250.0 / 3.0e8);
  EXPECT_EQ(rx_time, air + prop);
}

TEST_F(PhyTest, EqualDistanceOverlapCollides) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {500, 0});
  WirelessPhy c(sim, channel, 2, {250, 0});  // 250 from both
  RxLog log;
  log.attach(c);
  a.start_tx(data_packet(1000), false);
  sim.schedule_in(SimTime::from_us(100),
                  [&] { b.start_tx(data_packet(1000, 1), false); });
  sim.run();
  EXPECT_EQ(log.ok, 0);
  EXPECT_EQ(log.corrupted, 1);
  EXPECT_GE(c.collisions(), 1u);
}

TEST_F(PhyTest, CaptureSurvivesFarInterferer) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy c(sim, channel, 2, {250, 0});   // wanted rx at 250 m from a
  WirelessPhy b(sim, channel, 1, {750, 0});   // interferer 500 m from c
  RxLog log;
  log.attach(c);
  a.start_tx(data_packet(1000), false);
  sim.schedule_in(SimTime::from_us(100),
                  [&] { b.start_tx(data_packet(1000, 1), false); });
  sim.run();
  // 500 >= 1.78 * 250, so the overlapping far signal is captured over.
  EXPECT_EQ(log.ok, 1);
  EXPECT_EQ(log.corrupted, 0);
}

TEST_F(PhyTest, CaptureLocksOntoStrongFrameDespiteFarEnergy) {
  WirelessPhy b(sim, channel, 1, {750, 0});  // far talker first
  WirelessPhy c(sim, channel, 2, {250, 0});
  WirelessPhy a(sim, channel, 0, {0, 0});
  RxLog log;
  log.attach(c);
  b.start_tx(data_packet(1500, 1), false);  // long frame: energy at c
  sim.schedule_in(SimTime::from_us(500),
                  [&] { a.start_tx(data_packet(100), false); });
  sim.run();
  // c was sensing b's far signal but still locks onto a's strong frame.
  EXPECT_EQ(log.ok, 1);
}

TEST_F(PhyTest, HalfDuplexTxDuringRxCorruptsReception) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy c(sim, channel, 2, {250, 0});
  RxLog log;
  log.attach(c);
  a.start_tx(data_packet(1000), false);
  sim.schedule_in(SimTime::from_us(500),
                  [&] { c.start_tx(data_packet(50, 2), false); });
  sim.run();
  EXPECT_EQ(log.ok, 0);
  EXPECT_EQ(log.corrupted, 1);
}

// b's frame destroys c's reception of a's (equal distances: no capture).
// When c then starts to send, it cuts off a reception that is already
// lost, so the one lost frame counts one collision, not two.
TEST_F(PhyTest, TxOverALostReceptionCountsNoSecondCollision) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {500, 0});
  WirelessPhy c(sim, channel, 2, {250, 0});
  RxLog log;
  log.attach(c);
  a.start_tx(data_packet(1000), false);
  sim.schedule_in(SimTime::from_us(100),
                  [&] { b.start_tx(data_packet(1000, 1), false); });
  sim.schedule_in(SimTime::from_us(300),
                  [&] { c.start_tx(data_packet(50, 2), false); });
  sim.run();
  EXPECT_EQ(log.ok, 0);
  EXPECT_EQ(log.corrupted, 1);
  EXPECT_EQ(c.collisions(), 1u);
}

TEST_F(PhyTest, CarrierBusyDuringOwnTx) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  EXPECT_FALSE(a.carrier_busy());
  a.start_tx(data_packet(1000), false);
  EXPECT_TRUE(a.carrier_busy());
  EXPECT_TRUE(a.transmitting());
  sim.run();
  EXPECT_FALSE(a.carrier_busy());
}

TEST_F(PhyTest, UniformErrorModelCorruptsFrames) {
  channel.set_loss_rate(Probability(1.0));
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {250, 0});
  RxLog log;
  log.attach(b);
  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log.ok, 0);
  EXPECT_EQ(log.corrupted, 1);
  EXPECT_EQ(channel.frames_corrupted_by_error(), 1u);
}

TEST_F(PhyTest, DetachStopsDelivery) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  auto b = std::make_unique<WirelessPhy>(sim, channel, 1, Position{100, 0});
  WirelessPhy c(sim, channel, 2, {200, 0});
  RxLog log_b, log_c;
  log_b.attach(*b);
  log_c.attach(c);
  ASSERT_EQ(channel.attached_count(), 3u);

  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log_b.ok, 1);
  EXPECT_EQ(log_c.ok, 1);

  channel.detach(*b);
  EXPECT_EQ(channel.attached_count(), 2u);
  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log_b.ok, 1) << "detached PHY must not receive";
  EXPECT_EQ(log_c.ok, 2) << "remaining PHYs still receive";

  // Detach is idempotent, and a detached PHY may move freely.
  channel.detach(*b);
  b->set_position({300, 0});
  EXPECT_EQ(channel.attached_count(), 2u);
}

TEST_F(PhyTest, DestructorDetaches) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  {
    WirelessPhy b(sim, channel, 1, {100, 0});
    EXPECT_EQ(channel.attached_count(), 2u);
  }
  EXPECT_EQ(channel.attached_count(), 1u);
  // Transmitting after b died must not touch the dead PHY (ASan would
  // catch the dangling phys_/grid pointer this guards against).
  a.start_tx(data_packet(100), false);
  sim.run();
}

TEST_F(PhyTest, ReattachAfterDetachReceivesAgain) {
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {100, 0});
  RxLog log;
  log.attach(b);
  channel.detach(b);
  channel.attach(b);  // legal: detach cleared the attachment
  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log.ok, 1);
}

TEST_F(PhyTest, MovedReceiverTracksIndexAcrossCells) {
  // Move a receiver across a cell boundary (cell side = cs_range = 550 m)
  // and back; deliveries must follow its true position both times.
  WirelessPhy a(sim, channel, 0, {0, 0});
  WirelessPhy b(sim, channel, 1, {100, 0});
  RxLog log;
  log.attach(b);

  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log.ok, 1);

  b.set_position({2000, 2000});  // far cell, out of CS range
  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log.ok, 1);

  b.set_position({0, 200});  // back within decode range
  a.start_tx(data_packet(100), false);
  sim.run();
  EXPECT_EQ(log.ok, 2);
}

// A PHY whose owner needs no idle edges keeps the ends of signals it does
// not decode as records. These tests drive signal_start() directly, each
// start scheduled one propagation delay ahead as the channel would deliver
// it.
void deliver_at(Simulator& sim, WirelessPhy& rx, SimTime t, PacketPtr pkt,
                SimTime duration, Meters dist) {
  // Any delivery within carrier-sense range is at most 1.834 us ahead.
  const SimTime prop = SimTime::from_ns(834);
  sim.schedule_at(t - prop, [&sim, &rx, prop, duration, dist,
                             pkt = std::move(pkt)]() mutable {
    sim.schedule_in(prop, [&rx, duration, dist, pkt = std::move(pkt)]() mutable {
      rx.signal_start(std::move(pkt), false, duration, dist);
    });
  });
}

TEST_F(PhyTest, FrameLocksWhenARecordEndsAtItsArrival) {
  // A sensed-only signal 300 m away would block a frame from 250 m (300 <
  // 1.78 * 250), and it ends at the very ns the frame arrives. Its end was
  // reserved a whole airtime ahead (>= 192 us), the frame's start only a
  // propagation delay (<= 1.834 us), so the end sorts first: the record has
  // expired when the frame starts, and the PHY locks on. Scheduled as an
  // event, the end would run first just the same.
  for (bool needs_edges : {true, false}) {
    Simulator s(1);
    Channel ch(s, params);
    WirelessPhy c(s, ch, 0, {0, 0});
    c.set_needs_idle_edges(needs_edges);
    RxLog log;
    log.attach(c);
    const SimTime first = SimTime::from_us(10);
    const SimTime len = c.tx_duration(Bytes(1000), false);
    deliver_at(s, c, first, nullptr, len, Meters(300.0));
    deliver_at(s, c, first + len, data_packet(100),
               c.tx_duration(Bytes(100 + kMacDataOverheadBytes), false),
               Meters(250.0));
    s.run();
    EXPECT_EQ(log.ok, 1) << "needs idle edges: " << needs_edges;
    EXPECT_EQ(c.collisions(), 0u);
    // Two events per delivery plus the frame's end; the sensed signal's end
    // is a sixth event only when it is not kept as a record.
    EXPECT_EQ(s.events_executed(), needs_edges ? 6u : 5u);
  }
}

TEST_F(PhyTest, BusyTimeAcrossOverlappingRecords) {
  // Two sensed-only records overlap: [10, 1010) us and [500, 1500) us. The
  // busy time read between their ends, at either end and after both is the
  // same whether the ends are records or events; only the busy edge is
  // reported while they are records.
  for (bool needs_edges : {true, false}) {
    Simulator s(1);
    Channel ch(s, params);
    WirelessPhy c(s, ch, 0, {0, 0});
    c.set_needs_idle_edges(needs_edges);
    std::vector<bool> edges;
    c.set_channel_state_callback([&](bool busy) { edges.push_back(busy); });
    const SimTime len = SimTime::from_us(1000);
    deliver_at(s, c, SimTime::from_us(10), nullptr, len, Meters(400.0));
    deliver_at(s, c, SimTime::from_us(500), nullptr, len, Meters(500.0));
    std::vector<SimTime> read;
    for (SimTime t : {SimTime::from_us(400), SimTime::from_us(1010),
                      SimTime::from_us(1200), SimTime::from_us(1500),
                      SimTime::from_us(2000)}) {
      s.run_until(t);
      read.push_back(c.cumulative_busy_time());
    }
    EXPECT_EQ(read, (std::vector<SimTime>{
                        SimTime::from_us(390), SimTime::from_us(1000),
                        SimTime::from_us(1190), SimTime::from_us(1490),
                        SimTime::from_us(1490)}))
        << "needs idle edges: " << needs_edges;
    EXPECT_FALSE(c.carrier_busy());
    const std::vector<bool> expected_edges =
        needs_edges ? std::vector<bool>{true, false} : std::vector<bool>{true};
    EXPECT_EQ(edges, expected_edges);
  }
}

TEST_F(PhyTest, CollisionsReadMidFrameCountAPendingInterferer) {
  // C decodes a frame from A, 200 m away. Mid-frame, B starts 300 m from C:
  // beyond decode range, so while C needs no idle edges B's start is a
  // pending record, and it corrupts the frame (300 < 1.78 * 200). Nothing
  // runs at C between that start and the read, so collisions() must apply
  // the passed start itself.
  std::uint64_t events_with_edges = 0;
  for (bool needs_edges : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "needs idle edges: " << needs_edges);
    Simulator s(1);
    Channel ch(s, params);
    WirelessPhy c(s, ch, 0, {0, 0});
    WirelessPhy a(s, ch, 1, {200, 0});
    WirelessPhy b(s, ch, 2, {-300, 0});
    c.set_needs_idle_edges(needs_edges);
    RxLog log;
    log.attach(c);
    s.schedule_at(SimTime::zero(),
                  [&] { a.start_tx(data_packet(1000), false); });
    s.schedule_at(SimTime::from_ms(1),
                  [&] { b.start_tx(data_packet(1000, 2), false); });
    s.run_until(SimTime::from_ms(2));
    EXPECT_EQ(c.collisions(), 1u);
    s.run();
    EXPECT_EQ(c.collisions(), 1u);
    EXPECT_EQ(log.ok, 0);
    EXPECT_EQ(log.corrupted, 1);
    if (needs_edges) {
      events_with_edges = s.events_executed();
    } else {
      // B's start and end at C were records: two events fewer.
      EXPECT_EQ(s.events_executed() + 2, events_with_edges);
    }
  }
}

TEST_F(PhyTest, TxEndBeforeASignalEndAtTheSameInstantAndLead) {
  // A's frame reaches C, 300 m away, at `arrival`. B, beyond C's carrier
  // sense, starts a frame of the same airtime at that very instant, from an
  // event scheduled 10 us (a SIFS) earlier. B's TX end and the end of A's
  // signal at C are due at one instant with one lead. B's start_tx ran
  // before C's signal start, so B's tx-done comes first, then C's idle
  // edge: also when C keeps the end as a record until mid-signal.
  for (bool needs_from_start : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "needs from start: "
                                      << needs_from_start);
    Simulator s(1);
    Channel ch(s, params);
    WirelessPhy a(s, ch, 0, {0, 0});
    WirelessPhy b(s, ch, 1, {-300, 0});
    WirelessPhy c(s, ch, 2, {300, 0});
    c.set_needs_idle_edges(needs_from_start);
    std::vector<std::pair<char, SimTime>> order;
    b.set_tx_done_callback([&] { order.emplace_back('B', s.now()); });
    c.set_channel_state_callback([&](bool busy) {
      if (!busy) order.emplace_back('C', s.now());
    });
    const SimTime t0 = SimTime::from_ms(1);
    const SimTime arrival =
        t0 + to_sim_time(Meters(300.0) / params.propagation);
    const SimTime air = a.tx_duration(Bytes(1000 + kMacDataOverheadBytes),
                                      false);
    s.schedule_at(t0, [&] { a.start_tx(data_packet(1000), false); });
    s.schedule_at(arrival - SimTime::from_us(10), [&] {
      s.schedule_in(SimTime::from_us(10),
                    [&] { b.start_tx(data_packet(1000, 1), false); });
    });
    if (!needs_from_start) {
      s.schedule_at(arrival + air / 2, [&] { c.set_needs_idle_edges(true); });
    }
    s.run();
    EXPECT_EQ(order, (std::vector<std::pair<char, SimTime>>{
                         {'B', arrival + air}, {'C', arrival + air}}));
  }
}

TEST_F(PhyTest, NeedTurnedOnWhileAStartIsPendingSchedulesIt) {
  // B is 400 m from C: beyond decode range, so C only senses B's frame.
  // While C needs no idle edges, B's start at C is a pending record. C's
  // need comes back 500 ns after B starts, before the signal arrives
  // (1.334 us), so the start must be scheduled under its key: C reports the
  // busy edge at the arrival and the idle edge one airtime later, with one
  // airtime of busy time, as in a run in which C needed edges all along.
  const SimTime t0 = SimTime::from_ms(1);
  const SimTime arrival =
      t0 + to_sim_time(Meters(400.0) / params.propagation);
  for (bool needs_from_start : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "needs from start: "
                                      << needs_from_start);
    Simulator s(1);
    Channel ch(s, params);
    WirelessPhy b(s, ch, 0, {0, 0});
    WirelessPhy c(s, ch, 1, {400, 0});
    c.set_needs_idle_edges(needs_from_start);
    std::vector<std::pair<bool, SimTime>> edges;
    c.set_channel_state_callback(
        [&](bool busy) { edges.emplace_back(busy, s.now()); });
    s.schedule_at(t0, [&] { b.start_tx(data_packet(1000), false); });
    if (!needs_from_start) {
      s.schedule_at(t0 + SimTime::from_ns(500),
                    [&] { c.set_needs_idle_edges(true); });
    }
    s.run();
    const SimTime air = b.tx_duration(Bytes(1000 + kMacDataOverheadBytes),
                                      false);
    EXPECT_EQ(edges, (std::vector<std::pair<bool, SimTime>>{
                         {true, arrival}, {false, arrival + air}}));
    EXPECT_EQ(c.cumulative_busy_time(), air);
  }
}

}  // namespace
}  // namespace muzha
