// Protocol-timing tests for the 802.11 DCF MAC: frame airtimes, IFS gaps,
// NAV arithmetic, contention-window behaviour and the backoff freeze.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "mac/mac80211.h"
#include "phy/channel.h"
#include "sim/simulator.h"

namespace muzha {
namespace {

PacketPtr ip_packet(std::uint32_t bytes, NodeId src, NodeId dst) {
  PacketPtr p = alloc_packet();
  p->size_bytes = bytes;
  p->ip.src = src;
  p->ip.dst = dst;
  return p;
}

class MacTimingTest : public ::testing::Test {
 protected:
  struct Station {
    std::unique_ptr<WirelessPhy> phy;
    std::unique_ptr<Mac80211> mac;
    std::vector<std::pair<SimTime, PacketPtr>> rx;
    std::vector<SimTime> tx_done_times;
  };

  Station& add(NodeId id, Position pos) {
    auto st = std::make_unique<Station>();
    st->phy = std::make_unique<WirelessPhy>(sim, channel, id, pos);
    st->mac = std::make_unique<Mac80211>(sim, *st->phy);
    Station* raw = st.get();
    st->mac->set_rx_callback([raw, this](PacketPtr pkt) {
      raw->rx.emplace_back(sim.now(), std::move(pkt));
    });
    st->mac->set_tx_done_callback([raw, this](bool) {
      raw->tx_done_times.push_back(sim.now());
    });
    stations.push_back(std::move(st));
    return *stations.back();
  }

  Simulator sim{1};
  PhyParams params;
  Channel channel{sim, params};
  std::vector<std::unique_ptr<Station>> stations;
};

TEST_F(MacTimingTest, FourWayExchangeTakesExpectedAirtime) {
  // First transmission from a cold MAC: DIFS + zero backoff, then
  // RTS/SIFS/CTS/SIFS/DATA/SIFS/ACK + propagation.
  Station& a = add(0, {0, 0});
  Station& b = add(1, {200, 0});
  a.mac->transmit(ip_packet(1460, 0, 1), 1);
  sim.run_until(SimTime::from_ms(100));
  ASSERT_EQ(a.tx_done_times.size(), 1u);
  ASSERT_EQ(b.rx.size(), 1u);

  WirelessPhy& phy = *a.phy;
  SimTime difs = SimTime::from_us(50);
  SimTime sifs = SimTime::from_us(10);
  SimTime rts = phy.tx_duration(Bytes(kMacRtsBytes), true);
  SimTime cts = phy.tx_duration(Bytes(kMacCtsBytes), true);
  SimTime data = phy.tx_duration(Bytes(1460 + kMacDataOverheadBytes), false);
  SimTime ack = phy.tx_duration(Bytes(kMacAckBytes), true);
  SimTime expected = difs + rts + sifs + cts + sifs + data + sifs + ack;
  // Allow propagation delays (~0.7 us per hop of 200 m, 6 crossings).
  SimTime measured = a.tx_done_times[0];
  EXPECT_GE(measured, expected);
  EXPECT_LE(measured, expected + SimTime::from_us(10));
}

TEST_F(MacTimingTest, DataDeliveredBeforeMacAckCompletes) {
  Station& a = add(0, {0, 0});
  Station& b = add(1, {200, 0});
  a.mac->transmit(ip_packet(1000, 0, 1), 1);
  sim.run_until(SimTime::from_ms(100));
  ASSERT_EQ(b.rx.size(), 1u);
  // The payload is handed up at DATA end; the sender finishes one
  // SIFS + ACK later.
  EXPECT_LT(b.rx[0].first, a.tx_done_times[0]);
  SimTime gap = a.tx_done_times[0] - b.rx[0].first;
  SimTime sifs_ack = SimTime::from_us(10) +
                     a.phy->tx_duration(Bytes(kMacAckBytes), true);
  EXPECT_GE(gap, sifs_ack);
  EXPECT_LE(gap, sifs_ack + SimTime::from_us(5));
}

TEST_F(MacTimingTest, BroadcastSkipsRtsAndAck) {
  Station& a = add(0, {0, 0});
  add(1, {200, 0});
  a.mac->transmit(ip_packet(500, 0, kBroadcastId), kBroadcastId);
  sim.run_until(SimTime::from_ms(100));
  ASSERT_EQ(a.tx_done_times.size(), 1u);
  // DIFS + broadcast data at the basic rate; no control frames.
  SimTime expected = SimTime::from_us(50) +
                     a.phy->tx_duration(Bytes(500 + kMacDataOverheadBytes), true);
  EXPECT_GE(a.tx_done_times[0], expected);
  EXPECT_LE(a.tx_done_times[0], expected + SimTime::from_us(5));
  EXPECT_EQ(a.mac->rts_sent(), 0u);
}

TEST_F(MacTimingTest, RetryTimeoutAndBackoffBounds) {
  // RTS to a nonexistent station: 7 attempts, growing CW. The whole failure
  // must take at least 7 * (DIFS + RTS + timeout) and at most that plus the
  // maximum possible backoff sum.
  Station& a = add(0, {0, 0});
  a.mac->transmit(ip_packet(1000, 0, 9), 9);
  sim.run_until(SimTime::from_seconds(10));
  ASSERT_EQ(a.tx_done_times.size(), 1u);
  SimTime rts = a.phy->tx_duration(Bytes(kMacRtsBytes), true);
  SimTime cts = a.phy->tx_duration(Bytes(kMacCtsBytes), true);
  SimTime timeout = kMacSifs + cts + kMacTimeoutGuard;
  SimTime floor = kMacShortRetryLimit * (kMacDifs + rts + timeout);
  // Max backoff: 31+63+127+255+511+1023+1023 slots of 20 us.
  SimTime ceil = floor + SimTime::from_us(20 * (31 + 63 + 127 + 255 + 511 +
                                                1023 + 1023));
  EXPECT_GE(a.tx_done_times[0], floor);
  EXPECT_LE(a.tx_done_times[0], ceil);
}

TEST_F(MacTimingTest, NavBlocksBystanderForWholeExchange) {
  // c hears a's RTS; its own transmission must not start before a's
  // exchange (RTS+CTS+DATA+ACK) completes.
  Station& a = add(0, {0, 0});
  Station& b = add(1, {200, 0});
  Station& c = add(2, {-100, 0});
  Station& d = add(3, {-300, 0});
  (void)b;
  (void)d;
  a.mac->transmit(ip_packet(1460, 0, 1), 1);
  // c wants to talk to d shortly after a's RTS is on the air.
  sim.schedule_in(SimTime::from_us(500),
                  [&] { c.mac->transmit(ip_packet(1460, 2, 3), 3); });
  sim.run_until(SimTime::from_ms(100));
  ASSERT_EQ(a.tx_done_times.size(), 1u);
  ASSERT_EQ(c.tx_done_times.size(), 1u);
  EXPECT_GT(c.tx_done_times[0], a.tx_done_times[0]);
}

TEST_F(MacTimingTest, SecondFrameWaitsForPostBackoff) {
  // Two back-to-back frames: the second must not start before
  // DIFS after the first ACK completes.
  Station& a = add(0, {0, 0});
  Station& b = add(1, {200, 0});
  a.mac->transmit(ip_packet(500, 0, 1), 1);
  sim.run_until(SimTime::from_ms(50));
  SimTime first_done = a.tx_done_times[0];
  a.mac->transmit(ip_packet(500, 0, 1), 1);
  sim.run_until(SimTime::from_ms(100));
  ASSERT_EQ(b.rx.size(), 2u);
  EXPECT_GE(a.tx_done_times[1] - first_done, SimTime::from_us(50));
}

// A backoff countdown, observed. Station 0 broadcasts one frame, which
// draws a post-transmission backoff of n slots from the seed, then queues a
// second frame at kQueued. An observer PHY at the same spot (zero
// propagation delay) timestamps each frame's start. With `freeze`, a
// sensed-only signal of kFreezeLen reaches station 0 at that time, scheduled
// one propagation delay ahead as the channel would deliver it.
constexpr SimTime kQueued = SimTime::from_ms(10);
constexpr SimTime kFreezeLen = SimTime::from_us(300);
constexpr SimTime kPropDelay = SimTime::from_ns(667);

struct Countdown {
  SimTime first_slot;     // DIFS after queueing: the countdown starts here
  SimTime attempt;        // the second frame's start
  std::uint64_t events;   // executed from queueing to the second start
  std::int64_t slots() const {
    return (attempt - first_slot) / kMacSlot;
  }
};

Countdown run_countdown(std::uint64_t seed, std::optional<SimTime> freeze) {
  Simulator sim(seed);
  Channel channel(sim, PhyParams{});
  WirelessPhy phy(sim, channel, 0, {0, 0});
  Mac80211 mac(sim, phy);
  WirelessPhy observer(sim, channel, 1, {0, 0});
  std::vector<std::pair<SimTime, std::uint64_t>> starts;
  observer.set_channel_state_callback([&](bool busy) {
    if (busy) starts.emplace_back(sim.now(), sim.events_executed());
  });

  mac.transmit(ip_packet(100, 0, kBroadcastId), kBroadcastId);
  sim.run_until(kQueued);
  const std::uint64_t queued_events = sim.events_executed();
  mac.transmit(ip_packet(100, 0, kBroadcastId), kBroadcastId);
  if (freeze) {
    sim.schedule_at(*freeze - kPropDelay, [&] {
      sim.schedule_in(kPropDelay, [&] {
        phy.signal_start(nullptr, false, kFreezeLen, Meters(200.0));
      });
    });
  }
  sim.run_until(kQueued + SimTime::from_ms(100));
  EXPECT_EQ(starts.size(), 2u) << "seed " << seed;
  if (starts.size() != 2) return {};
  return {kQueued + kMacDifs, starts[1].first,
          starts[1].second - queued_events};
}

TEST(MacBackoff, FreezeSpendsEverySlotWhoseBoundaryHasPassed) {
  const SimTime slot = kMacSlot;
  const SimTime difs = kMacDifs;
  std::uint64_t seed = 1;
  Countdown free_run = run_countdown(seed, std::nullopt);
  while (free_run.slots() < 3) {
    ASSERT_LT(++seed, 64u) << "no seed draws a backoff of 3+ slots";
    free_run = run_countdown(seed, std::nullopt);
  }
  const std::int64_t n = free_run.slots();
  ASSERT_EQ(free_run.first_slot + slot * n, free_run.attempt);
  for (std::int64_t k = 1; k < n; ++k) {
    // A busy edge exactly on the k-th boundary spends k slots: after the
    // signal and a DIFS, n - k remain.
    const SimTime boundary = free_run.first_slot + slot * k;
    EXPECT_EQ(run_countdown(seed, boundary).attempt,
              boundary + kFreezeLen + difs + slot * (n - k))
        << "k=" << k << " of n=" << n;
    // One nanosecond earlier the k-th slot is not yet spent.
    const SimTime early = boundary - SimTime::from_ns(1);
    EXPECT_EQ(run_countdown(seed, early).attempt,
              early + kFreezeLen + difs + slot * (n - k + 1))
        << "k=" << k << " of n=" << n;
  }
}

TEST(MacBackoff, UndisturbedCountdownCostsTheSameEventsWhateverItsLength) {
  const Countdown first = run_countdown(1, std::nullopt);
  std::set<std::int64_t> lengths{first.slots()};
  for (std::uint64_t seed = 2; seed <= 8; ++seed) {
    const Countdown c = run_countdown(seed, std::nullopt);
    lengths.insert(c.slots());
    EXPECT_EQ(c.events, first.events)
        << "seed " << seed << " counts down " << c.slots() << " slots";
  }
  EXPECT_GE(lengths.size(), 3u) << "the seeds should draw different backoffs";
}

// A station whose MAC holds no frame keeps a sensed signal's end as a
// record. Station 0 senses a signal of kFreezeLen arriving at kSensed, and
// takes a broadcast frame at `take`. An observer PHY at the same spot
// timestamps the frame's start: a cold MAC draws no backoff, so the frame
// starts one DIFS after the medium is idle at the take.
SimTime start_after_record(SimTime take) {
  constexpr SimTime kSensed = SimTime::from_ms(1);
  Simulator sim(1);
  Channel channel(sim, PhyParams{});
  WirelessPhy phy(sim, channel, 0, {0, 0});
  Mac80211 mac(sim, phy);
  WirelessPhy observer(sim, channel, 1, {0, 0});
  std::vector<SimTime> starts;
  observer.set_channel_state_callback([&](bool busy) {
    if (busy) starts.push_back(sim.now());
  });
  sim.schedule_at(kSensed - kPropDelay, [&] {
    sim.schedule_in(kPropDelay, [&] {
      phy.signal_start(nullptr, false, kFreezeLen, Meters(400.0));
    });
  });
  sim.schedule_at(take, [&] {
    mac.transmit(ip_packet(100, 0, kBroadcastId), kBroadcastId);
  });
  sim.run_until(SimTime::from_ms(10));
  EXPECT_EQ(starts.size(), 1u);
  return starts.empty() ? SimTime::zero() : starts[0];
}

TEST(MacRecords, FrameTakenMidRecordStartsDifsAtTheRecordEnd) {
  const SimTime end = SimTime::from_ms(1) + kFreezeLen;
  // Taken mid-signal: the record's end is scheduled and starts the DIFS.
  EXPECT_EQ(start_after_record(SimTime::from_ms(1) + kFreezeLen / 2),
            end + kMacDifs);
  // Taken at the end's own instant: the take was scheduled further ahead,
  // so it sorts first and schedules the end, whose idle edge then starts
  // the DIFS at that same instant.
  EXPECT_EQ(start_after_record(end), end + kMacDifs);
  // Taken after the end: the DIFS runs from the take.
  EXPECT_EQ(start_after_record(end + SimTime::from_us(3)),
            end + SimTime::from_us(3) + kMacDifs);
}

}  // namespace
}  // namespace muzha
