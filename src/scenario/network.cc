#include "scenario/network.h"

#include "core/bandwidth_estimator.h"
#include "core/drai.h"
#include "net/node.h"
#include "phy/channel.h"
#include "phy/phy_params.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "relwork/ecn.h"
#include "routing/aodv.h"
#include "routing/static_routing.h"
#include "sim/assert.h"
#include "sim/units.h"

namespace muzha {

Network::Network(std::uint64_t seed, ChannelMode channel_mode)
    : sim_(seed), channel_(sim_, PhyParams{}, channel_mode) {}

Node& Network::add_node(Position pos) {
  return add_node(pos, static_cast<NodeId>(nodes_.size()));
}

Node& Network::add_node(Position pos, NodeId id) {
  MUZHA_ASSERT(nodes_.empty() || nodes_.back()->id() < id,
               "node ids must be added in increasing order");
  nodes_.push_back(std::make_unique<Node>(sim_, channel_, id, pos));
  return *nodes_.back();
}

void Network::use_aodv() {
  for (auto& n : nodes_) {
    n->set_routing(std::make_unique<Aodv>(sim_, *n));
  }
}

void Network::use_static_routing() {
  for (auto& n : nodes_) {
    n->set_routing(std::make_unique<StaticRouting>(*n));
  }
}

StaticRouting& Network::static_routing(std::size_t i) {
  auto* r = dynamic_cast<StaticRouting*>(&nodes_[i]->routing());
  MUZHA_ASSERT(r != nullptr, "node is not using static routing");
  return *r;
}

void Network::enable_muzha_routers(DraiConfig cfg) {
  drai_sources_.clear();
  drai_sources_.reserve(nodes_.size());
  for (auto& n : nodes_) {
    auto est = std::make_unique<BandwidthEstimator>(sim_, n->device(), cfg);
    est->start();
    n->set_drai_source(est.get());
    drai_sources_.push_back(std::move(est));
  }
}

void Network::enable_red_ecn_routers() {
  drai_sources_.clear();
  drai_sources_.reserve(nodes_.size());
  for (auto& n : nodes_) {
    auto marker = std::make_unique<RedEcnMarker>(sim_, n->device());
    n->set_drai_source(marker.get());
    drai_sources_.push_back(std::move(marker));
  }
}

std::vector<NodeId> add_nodes(Network& net,
                              const std::vector<Position>& positions) {
  std::vector<NodeId> ids;
  ids.reserve(positions.size());
  for (Position p : positions) ids.push_back(net.add_node(p).id());
  return ids;
}

std::vector<Position> chain_positions(int hops, Meters spacing) {
  MUZHA_ASSERT(hops >= 1, "chain needs at least one hop");
  std::vector<Position> out;
  out.reserve(static_cast<std::size_t>(hops) + 1);
  for (int i = 0; i <= hops; ++i) out.push_back({spacing.value() * i, 0.0});
  return out;
}

std::vector<NodeId> build_chain(Network& net, int hops, Meters spacing) {
  return add_nodes(net, chain_positions(hops, spacing));
}

std::vector<Position> cross_positions(int hops) {
  MUZHA_ASSERT(hops >= 2 && hops % 2 == 0, "cross needs an even hop count");
  int half = hops / 2;
  std::vector<Position> out;
  out.reserve(2 * static_cast<std::size_t>(hops) + 1);
  for (int i = -half; i <= half; ++i) {
    out.push_back({kChainSpacing.value() * i, 0.0});
  }
  for (int i = -half; i <= half; ++i) {
    if (i != 0) out.push_back({0.0, kChainSpacing.value() * i});
  }
  return out;
}

}  // namespace muzha
