// Device-level accumulation of per-hop queueing delay (the RoVegas IP
// option) and the queue-gradient DRAI extension.
#include <gtest/gtest.h>

#include "core/bandwidth_estimator.h"
#include "net/node.h"
#include "phy/channel.h"
#include "routing/static_routing.h"
#include "sim/simulator.h"

namespace muzha {
namespace {

class CollectAgent : public Agent {
 public:
  void receive(PacketPtr pkt) override { got.push_back(std::move(pkt)); }
  std::vector<PacketPtr> got;
};

TEST(QueueDelayOption, BackloggedQueueAccumulatesDelay) {
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  Node a(sim, channel, 0, {0, 0});
  Node b(sim, channel, 1, {200, 0});
  auto ra = std::make_unique<StaticRouting>(a);
  ra->add_route(1, 1);
  a.set_routing(std::move(ra));
  b.set_routing(std::make_unique<StaticRouting>(b));
  CollectAgent sink;
  b.register_agent(80, sink);

  // Burst of packets: all but the first wait in a's IFQ.
  for (int i = 0; i < 5; ++i) {
    PacketPtr p = a.new_packet(1, IpProto::kTcp, 1500);
    TcpHeader h;
    h.dst_port = 80;
    h.seqno = i;
    p->l4 = h;
    a.send(std::move(p));
  }
  sim.run_until(SimTime::from_seconds(1));
  ASSERT_EQ(sink.got.size(), 5u);
  // First packet went straight to the MAC: zero queueing delay.
  EXPECT_EQ(sink.got[0]->ip.accum_queue_delay, SimTime::zero());
  // Later packets queued behind earlier airtime: strictly growing delay.
  for (std::size_t i = 2; i < sink.got.size(); ++i) {
    EXPECT_GT(sink.got[i]->ip.accum_queue_delay,
              sink.got[i - 1]->ip.accum_queue_delay);
  }
  // A 1500 B frame takes ~6.4 ms of air: the 5th packet waited several.
  EXPECT_GT(sink.got[4]->ip.accum_queue_delay, SimTime::from_ms(10));
}

TEST(QueueGradient, RisingQueueCapsDrai) {
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  Node a(sim, channel, 0, {0, 0});
  DraiConfig cfg;
  cfg.use_queue_gradient = true;  // caps at 5 pkt/s of queue growth
  BandwidthEstimator est(sim, a.device(), cfg);
  est.start();

  // Idle: full acceleration.
  sim.run_until(SimTime::from_ms(200));
  EXPECT_EQ(est.current_drai(), kDraiAggressiveAccel);

  // Queue grows ~40 pkt/s (via direct enqueue; nothing drains it since the
  // routing never sends). Occupancy stays < 25% of the 50-slot IFQ, so any
  // DRAI reduction comes from the gradient alone.
  std::uint64_t uid = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::from_ms(200 + i * 25), [&a, &uid] {
      a.device().queue().enqueue(make_packet(uid), 1);
    });
  }
  sim.run_until(SimTime::from_ms(460));
  EXPECT_GT(est.queue_gradient(), SegmentsPerSecond(10.0));
  EXPECT_LE(est.current_drai(), kDraiModerateDecel);
}

TEST(QueueGradient, DisabledByDefault) {
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  Node a(sim, channel, 0, {0, 0});
  BandwidthEstimator est(sim, a.device(), DraiConfig{});
  est.start();
  std::uint64_t uid = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::from_ms(200 + i * 25), [&a, &uid] {
      a.device().queue().enqueue(make_packet(uid), 1);
    });
  }
  sim.run_until(SimTime::from_ms(460));
  // 10/50 occupancy = moderate accel band; without the gradient option the
  // rising queue does not cap the level below that.
  EXPECT_EQ(est.current_drai(), kDraiModerateAccel);
}

}  // namespace
}  // namespace muzha
