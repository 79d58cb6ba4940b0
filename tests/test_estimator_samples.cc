// Folded busy samples against the ticking estimator they replaced.
//
// One script drives a field of devices. Each device carries two estimators:
// the BandwidthEstimator, whose 50 ms samples the PHY folds lazily (at its
// busy-time bookings, before IFQ changes and before reads), and a test-local
// reference that samples the old way, one self-rescheduling event per
// interval reading the PHY's busy total and the IFQ length as it runs. At
// scripted reads the two must agree to the bit on utilization and queue
// gradient. The scripts cover lazily applied signal records (a lossy random
// field), handlers that reach the IFQ before they book their carrier edge
// (a saturated exchange: a TX end feeding the MAC, and an ACK's signal end
// completing a frame), and IFQ changes and reads exactly at a boundary,
// scheduled more and less than one interval ahead.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/bandwidth_estimator.h"
#include "core/drai.h"
#include "net/node.h"
#include "net/wireless_device.h"
#include "phy/channel.h"
#include "phy/phy_params.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "scenario/network.h"
#include "sim/rng.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {
namespace {

// The estimator's sampling before its samples were folded: an event every
// interval that reads the busy total and the IFQ length and schedules the
// next one. Same EWMA arithmetic.
class TickingEstimator {
 public:
  TickingEstimator(Simulator& sim, WirelessDevice& device, SimTime interval)
      : sim_(sim), device_(device), interval_(interval) {}

  void start() {
    last_busy_total_ = device_.phy().cumulative_busy_time();
    sim_.schedule_in(interval_, [this] { tick(); });
  }

  double utilization() const { return util_ewma_; }
  SegmentsPerSecond queue_gradient() const { return gradient_ewma_; }

 private:
  static constexpr double kAlpha = 0.5;

  void tick() {
    SimTime busy_total = device_.phy().cumulative_busy_time();
    SimTime delta = busy_total - last_busy_total_;
    last_busy_total_ = busy_total;
    double inst = static_cast<double>(delta.ns()) /
                  static_cast<double>(interval_.ns());
    if (inst > 1.0) inst = 1.0;
    util_ewma_ = kAlpha * inst + (1.0 - kAlpha) * util_ewma_;
    double q = static_cast<double>(device_.queue().size());
    SegmentsPerSecond inst_gradient =
        Segments(q - last_queue_size_) / to_seconds(interval_);
    last_queue_size_ = q;
    gradient_ewma_ = kAlpha * inst_gradient + (1.0 - kAlpha) * gradient_ewma_;
    sim_.schedule_in(interval_, [this] { tick(); });
  }

  Simulator& sim_;
  WirelessDevice& device_;
  SimTime interval_;
  double util_ewma_ = 0.0;
  SegmentsPerSecond gradient_ewma_;
  double last_queue_size_ = 0.0;
  SimTime last_busy_total_;
};

// Devices over one channel, each with a folded and a ticking estimator.
class World {
 public:
  World(std::uint64_t seed, const std::vector<Position>& positions,
        double loss_rate)
      : sim_(seed), channel_(sim_, PhyParams{}) {
    channel_.set_loss_rate(Probability(loss_rate));
    for (std::size_t i = 0; i < positions.size(); ++i) {
      devices_.push_back(std::make_unique<WirelessDevice>(
          sim_, channel_, static_cast<NodeId>(i), positions[i], kIfqCapacity));
      folded_.push_back(
          std::make_unique<BandwidthEstimator>(sim_, *devices_.back()));
      ticking_.push_back(std::make_unique<TickingEstimator>(
          sim_, *devices_.back(), DraiConfig{}.sample_interval));
    }
  }

  // Starts both estimators of every device `t` into the run.
  void start_at(SimTime t) {
    sim_.schedule_at(t, [this] {
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        folded_[i]->start();
        ticking_[i]->start();
      }
    });
  }

  // At `t`, scheduled `lead` ahead (t >= lead): `node` compares its
  // estimators, as a forwarder stamps a packet, then sends `bytes` to
  // `next_hop` through its device.
  void send_at(SimTime t, SimTime lead, std::size_t node, NodeId next_hop,
               std::uint32_t bytes) {
    at(t, lead, [this, node, next_hop, bytes] {
      compare(node);
      devices_[node]->send(packet(bytes), next_hop);
    });
  }

  // At `t`, scheduled `lead` ahead: a packet goes straight into `node`'s
  // IFQ, whatever its MAC is doing.
  void enqueue_at(SimTime t, SimTime lead, std::size_t node) {
    at(t, lead, [this, node] {
      devices_[node]->queue().enqueue(packet(100), kBroadcastId, sim_.now());
    });
  }

  // At `t`, scheduled `lead` ahead: every device compares its estimators.
  void read_at(SimTime t, SimTime lead) {
    at(t, lead, [this] {
      for (std::size_t i = 0; i < devices_.size(); ++i) compare(i);
    });
  }

  void run_until(SimTime t) { sim_.run_until(t); }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t mismatches() const { return mismatches_; }
  double max_utilization() const { return max_util_; }
  bool saw_gradient() const { return saw_gradient_; }

 private:
  template <typename F>
  void at(SimTime t, SimTime lead, F action) {
    sim_.schedule_at(t - lead, [this, lead, action]() mutable {
      sim_.schedule_in(lead, std::move(action));
    });
  }

  PacketPtr packet(std::uint32_t bytes) {
    PacketPtr p = make_packet(uid_);
    p->size_bytes = bytes;
    return p;
  }

  void compare(std::size_t i) {
    const double util = folded_[i]->utilization();
    const double gradient = folded_[i]->queue_gradient().value();
    const double ref_util = ticking_[i]->utilization();
    const double ref_gradient = ticking_[i]->queue_gradient().value();
    ++reads_;
    if (std::bit_cast<std::uint64_t>(util) !=
            std::bit_cast<std::uint64_t>(ref_util) ||
        std::bit_cast<std::uint64_t>(gradient) !=
            std::bit_cast<std::uint64_t>(ref_gradient)) {
      if (mismatches_++ == 0) {
        ADD_FAILURE() << "device " << i << " at t=" << sim_.now().ns()
                      << " ns: folded utilization " << util << " gradient "
                      << gradient << ", ticking " << ref_util << " / "
                      << ref_gradient;
      }
    }
    max_util_ = std::max(max_util_, ref_util);
    saw_gradient_ = saw_gradient_ || ref_gradient != 0.0;
  }

  Simulator sim_;
  Channel channel_;
  std::vector<std::unique_ptr<WirelessDevice>> devices_;
  std::vector<std::unique_ptr<BandwidthEstimator>> folded_;
  std::vector<std::unique_ptr<TickingEstimator>> ticking_;
  std::uint64_t uid_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t mismatches_ = 0;
  double max_util_ = 0.0;
  bool saw_gradient_ = false;
};

constexpr SimTime kInterval = SimTime::from_ms(50);
// Leads on either side of the sample interval.
constexpr SimTime kLongLead = SimTime::from_ms(80);
constexpr SimTime kShortLead = SimTime::from_ms(20);

// IFQ changes and reads on `node`, and reads everywhere, at every boundary
// from `first` to `last`, alternately scheduled more and less than one
// interval ahead (boundaries count from a start at 0).
void script_boundaries(World& w, std::size_t node, int first, int last) {
  for (int k = first; k <= last; ++k) {
    const SimTime t = kInterval * k;
    const SimTime lead = k % 2 == 0 ? kLongLead : kShortLead;
    w.enqueue_at(t, lead, node);
    w.read_at(t, lead);
    w.read_at(t, k % 2 == 0 ? kShortLead : kLongLead);
  }
}

TEST(EstimatorSamplesDifferential, RandomFieldWithLoss) {
  // ~2 carrier-sense ranges square: most stations sense frames they cannot
  // decode, and with no frame held their MACs keep those signals as
  // records, applied lazily.
  Rng layout(41);
  std::vector<Position> positions;
  for (int i = 0; i < 30; ++i) {
    positions.push_back(
        {layout.uniform(0.0, 1200.0), layout.uniform(0.0, 1200.0)});
  }
  World w(41, positions, 0.1);
  w.start_at(SimTime::zero());
  Rng script(0x5A3B1Eull);
  const SimTime horizon = SimTime::from_seconds(2.0);
  for (int i = 0; i < 600; ++i) {
    const SimTime t =
        SimTime::from_ns(script.uniform_int(kLongLead.ns(), horizon.ns()));
    const SimTime lead = script.uniform_int(0, 1) == 0 ? kLongLead : kShortLead;
    const auto node = static_cast<std::size_t>(script.uniform_int(0, 29));
    const NodeId next_hop = script.uniform_int(0, 3) == 0
                                ? kBroadcastId
                                : static_cast<NodeId>(script.uniform_int(0, 29));
    const auto bytes = static_cast<std::uint32_t>(script.uniform_int(40, 1500));
    w.send_at(t, lead, node, next_hop, bytes);
  }
  for (int i = 0; i < 150; ++i) {
    w.read_at(SimTime::from_ns(script.uniform_int(kLongLead.ns(), horizon.ns())),
              kShortLead);
  }
  script_boundaries(w, 7, 2, 38);
  w.run_until(horizon + kInterval);
  EXPECT_EQ(w.mismatches(), 0u);
  EXPECT_GT(w.reads(), 5000u);
  EXPECT_GT(w.max_utilization(), 0.2);
  EXPECT_TRUE(w.saw_gradient());
}

TEST(EstimatorSamplesDifferential, SaturatedExchange) {
  // Node 0 keeps its IFQ full of unicast frames to node 1, whose ACK's
  // signal end completes each exchange and feeds the MAC from the IFQ;
  // node 1's broadcasts end in a TX end that feeds its MAC directly. Both
  // handlers dequeue before they book their carrier edge.
  World w(5, {{0.0, 0.0}, {200.0, 0.0}}, 0.0);
  w.start_at(SimTime::zero());
  Rng script(0xE3C4A9Eull);
  const SimTime horizon = SimTime::from_seconds(3.0);
  for (SimTime t = kLongLead; t < horizon; t += SimTime::from_ms(2)) {
    w.send_at(t, kLongLead, 0, 1, 1500);
  }
  for (SimTime t = kLongLead; t < horizon; t += SimTime::from_ms(9)) {
    w.send_at(t, kShortLead, 1, kBroadcastId,
              static_cast<std::uint32_t>(script.uniform_int(40, 1500)));
  }
  for (int i = 0; i < 300; ++i) {
    w.read_at(SimTime::from_ns(script.uniform_int(kLongLead.ns(), horizon.ns())),
              kShortLead);
  }
  script_boundaries(w, 1, 2, 58);
  w.run_until(horizon + kInterval);
  EXPECT_EQ(w.mismatches(), 0u);
  EXPECT_GT(w.reads(), 2000u);
  EXPECT_GT(w.max_utilization(), 0.8);
  EXPECT_TRUE(w.saw_gradient());
}

TEST(EstimatorSamplesDifferential, IfqChangesAtBoundaries) {
  // No traffic: every change is a direct IFQ enqueue exactly at a boundary,
  // scheduled more or less than one interval ahead, so only the key order
  // at the boundary decides which length a sample reads.
  World w(9, {{0.0, 0.0}, {2000.0, 0.0}}, 0.0);
  w.start_at(SimTime::zero());
  script_boundaries(w, 0, 2, 40);
  script_boundaries(w, 1, 3, 20);
  w.run_until(SimTime::from_seconds(2.5));
  EXPECT_EQ(w.mismatches(), 0u);
  EXPECT_TRUE(w.saw_gradient());
}

// ---------------------------------------------------------------------------
// One sampler per PHY.

TEST(BusySamplerDeathTest, APhyTakesOneSampler) {
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  WirelessDevice device(sim, channel, 0, {0.0, 0.0}, kIfqCapacity);
  BandwidthEstimator first(sim, device);
  first.start();
  BandwidthEstimator second(sim, device);
  EXPECT_DEATH(second.start(), "one busy sampler");
}

TEST(BusySampler, DestroyedEstimatorDetaches) {
  // An estimator that goes before its PHY takes its sampler along: the
  // PHY's bookings fold nothing into it afterwards (a sanitizer build sees
  // any use of the freed estimator), and another can attach.
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  WirelessDevice a(sim, channel, 0, {0.0, 0.0}, kIfqCapacity);
  WirelessDevice b(sim, channel, 1, {200.0, 0.0}, kIfqCapacity);
  std::uint64_t uid = 0;
  for (int i = 0; i < 80; ++i) {
    sim.schedule_at(SimTime::from_ms(5 * i), [&a, &uid] {
      PacketPtr p = make_packet(uid);
      p->size_bytes = 1500;
      a.send(std::move(p), 1);
    });
  }
  auto gone = std::make_unique<BandwidthEstimator>(sim, b);
  gone->start();
  sim.run_until(SimTime::from_ms(120));
  EXPECT_GT(gone->utilization(), 0.5);
  gone.reset();
  sim.run_until(SimTime::from_ms(240));
  BandwidthEstimator next(sim, b);
  next.start();
  sim.run_until(SimTime::from_ms(400));
  EXPECT_GT(next.utilization(), 0.5);
}

TEST(BusySampler, RebuiltRoutersDetachTheirSamplers) {
  // enable_muzha_routers() drops its estimators and builds new ones; a
  // dropped estimator left attached would make each new one a second
  // sampler, and the traffic's carrier edges would fold into freed ones.
  Network net(1);
  build_chain(net, 2);
  net.use_static_routing();
  std::uint64_t uid = 0;
  for (int i = 0; i < 60; ++i) {
    net.sim().schedule_at(SimTime::from_ms(5 * i), [&net, &uid] {
      PacketPtr p = make_packet(uid);
      p->size_bytes = 1000;
      net.node(0).device().send(std::move(p), 1);
    });
  }
  net.enable_muzha_routers(DraiConfig{});
  net.run_until(SimTime::from_ms(100));
  net.enable_muzha_routers(DraiConfig{});
  net.run_until(SimTime::from_ms(300));
  EXPECT_GT(net.node(1).device().phy().cumulative_busy_time(),
            SimTime::from_ms(100));
}

}  // namespace
}  // namespace muzha
