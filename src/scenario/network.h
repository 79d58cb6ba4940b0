// Network: one simulation instance — simulator, channel, nodes, routing and
// (optionally) Muzha router assistance.
#pragma once

#include <memory>
#include <vector>

#include "core/drai.h"
#include "net/agent.h"
#include "net/node.h"
#include "phy/channel.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "routing/static_routing.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1,
                   ChannelMode channel_mode = ChannelMode::kSpatialIndex);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }
  Channel& channel() { return channel_; }

  Node& add_node(Position pos);
  // Adds a node with an explicit id. Used by sharded runs, where each shard's
  // network hosts a SUBSET of the global node set but ids must stay globally
  // unique (frames cross shards carrying NodeId addresses). Within one
  // network, ids must still be distinct and added in increasing order so the
  // local index -> id mapping stays monotonic.
  Node& add_node(Position pos, NodeId id);
  Node& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }

  // Installs AODV on every node (the paper's Table 5.1 routing protocol).
  void use_aodv();

  // Installs static next-hop routing; the caller fills the tables via
  // static_routing(i).
  void use_static_routing();
  class StaticRouting& static_routing(std::size_t i);

  // Attaches a Muzha bandwidth estimator / DRAI source to every node
  // (routers assist all passing Muzha flows).
  void enable_muzha_routers(DraiConfig cfg);

  // Attaches RED/ECN single-bit markers instead (the paper's Sec. 3.2
  // comparison point). Mutually exclusive with enable_muzha_routers.
  void enable_red_ecn_routers();

  void run_until(SimTime t) { sim_.run_until(t); }

 private:
  Simulator sim_;
  Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<DraiSource>> drai_sources_;
};

// Adds one node per position, in order, and returns their ids.
std::vector<NodeId> add_nodes(Network& net,
                              const std::vector<Position>& positions);

// Neighbour distance of the paper's chain and cross (Figs 5.1, 5.15): 250 m,
// exactly one-hop connectivity.
inline constexpr Meters kChainSpacing = Meters(250.0);

// Chain topology (Fig 5.1): hops+1 nodes on a line, neighbours `spacing`
// apart.
std::vector<Position> chain_positions(int hops, Meters spacing = kChainSpacing);
std::vector<NodeId> build_chain(Network& net, int hops,
                                Meters spacing = kChainSpacing);

// Cross topology (Fig 5.15): a horizontal and a vertical chain of `hops`
// hops, neighbours kChainSpacing apart, sharing the centre node (4-hop
// cross = 9 nodes). Positions list the horizontal arm left to right, then
// the vertical arm bottom to top without the centre, so the centre is index
// hops / 2 and the vertical arm's ends are indices hops + 1 and 2 * hops.
std::vector<Position> cross_positions(int hops);

}  // namespace muzha
