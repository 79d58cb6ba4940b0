#include <gtest/gtest.h>

#include "scenario/network.h"

namespace muzha {
namespace {

Meters dist(Network& net, std::size_t a, std::size_t b) {
  return distance(net.node(a).device().phy().position(),
                  net.node(b).device().phy().position());
}

TEST(GridTopology, RowMajorLayout) {
  Network net(1);
  auto ids = build_grid(net, 3, 4, Meters(200.0));
  ASSERT_EQ(ids.size(), 12u);
  // Node (r=1, c=2) sits at (400, 200).
  Position p = net.node(1 * 4 + 2).device().phy().position();
  EXPECT_DOUBLE_EQ(p.x, 400.0);
  EXPECT_DOUBLE_EQ(p.y, 200.0);
  // Horizontal and vertical neighbours are in decode range; diagonals not.
  EXPECT_LE(dist(net, 0, 1), Meters(250.0));
  EXPECT_LE(dist(net, 0, 4), Meters(250.0));
  EXPECT_GT(dist(net, 0, 5), Meters(250.0));
}

TEST(GridTopology, SingleRowIsAChain) {
  Network net(1);
  auto ids = build_grid(net, 1, 5, Meters(250.0));
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_DOUBLE_EQ(dist(net, 0, 4).value(), 1000.0);
}

}  // namespace
}  // namespace muzha
