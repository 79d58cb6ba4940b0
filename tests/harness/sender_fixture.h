// Topology + injection core shared by every TCP-sender test harness.
//
// The agent sits on a real node (its data segments go out over a real
// channel and vanish at the far node, which has no sink registered), while
// tests inject synthetic ACK packets directly via Agent::receive(). This
// gives cycle-exact control over the congestion-control state machines.
//
// All ACK construction funnels through make_ack()/inject(): the step DSL
// (step_harness.h) and the legacy convenience helpers below share this one
// injection path.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/node.h"
#include "phy/channel.h"
#include "routing/static_routing.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "tcp/tcp_agent.h"

namespace muzha {
namespace harness {

template <class AgentT>
class SenderFixture {
 public:
  explicit SenderFixture(TcpConfig cfg = {}) : channel_(sim_, PhyParams{}) {
    src_ = std::make_unique<Node>(sim_, channel_, 0, Position{0, 0});
    dst_ = std::make_unique<Node>(sim_, channel_, 1, Position{200, 0});
    auto rs = std::make_unique<StaticRouting>(*src_);
    rs->add_route(1, 1);
    src_->set_routing(std::move(rs));
    auto rd = std::make_unique<StaticRouting>(*dst_);
    rd->add_route(0, 0);
    dst_->set_routing(std::move(rd));

    cfg.dst = 1;
    cfg.src_port = 1000;
    cfg.dst_port = 2000;
    agent_ = std::make_unique<AgentT>(sim_, *src_, cfg);
  }

  AgentT& agent() { return *agent_; }
  Simulator& sim() { return sim_; }
  Node& src() { return *src_; }

  void start() {
    agent_->start();
    run_ms(1);
  }

  // Starts the agent without advancing the clock (step-DSL entry point: the
  // initial burst is observable before any time passes).
  void start_agent() { agent_->start(); }

  void run_ms(std::int64_t ms) {
    sim_.run_until(sim_.now() + SimTime::from_ms(ms));
  }

  void advance(Seconds dt) { sim_.run_until(sim_.now() + to_sim_time(dt)); }

  PacketPtr make_ack(std::int64_t ackno, std::uint8_t mrai = 5,
                     bool marked = false, SackList sacks = {},
                     SimTime ts_echo = SimTime::zero()) {
    PacketPtr p = dst_->new_packet(0, IpProto::kTcp, 40);
    TcpHeader h;
    h.is_ack = true;
    h.seqno = ackno;
    h.src_port = 2000;
    h.dst_port = 1000;
    h.mrai = mrai;
    h.marked = marked;
    h.sacks = sacks;
    h.ts_echo = ts_echo;
    p->l4 = std::move(h);
    return p;
  }

  // Crafts an ACK and lets the caller adjust any header field.
  template <class Fn>
  PacketPtr make_ack_with(std::int64_t ackno, Fn&& mutate) {
    PacketPtr p = make_ack(ackno);
    mutate(p->tcp());
    return p;
  }

  // The single injection path: every synthetic packet enters here.
  void inject(PacketPtr p) { agent_->receive(std::move(p)); }

  // Injects one cumulative ACK (ackno = highest in-order segment).
  void ack(std::int64_t ackno, std::uint8_t mrai = 5) {
    inject(make_ack(ackno, mrai));
  }

  // Injects `n` duplicate ACKs for `ackno`.
  void dup_acks(std::int64_t ackno, int n, bool marked = false,
                SackList sacks = {}) {
    for (int i = 0; i < n; ++i) {
      inject(make_ack(ackno, 5, marked, sacks));
    }
  }

  // Acks everything up to `upto` one segment at a time (growing cwnd).
  void ack_each_up_to(std::int64_t upto, std::uint8_t mrai = 5) {
    for (std::int64_t s = agent_->highest_ack() + 1; s <= upto; ++s) {
      ack(s, mrai);
    }
  }

 private:
  Simulator sim_{1};
  Channel channel_;
  std::unique_ptr<Node> src_, dst_;
  std::unique_ptr<AgentT> agent_;
};

}  // namespace harness
}  // namespace muzha
