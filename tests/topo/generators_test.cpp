#include "topo/generators.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bgpsim::topo {
namespace {

using net::NodeId;

TEST(Clique, SizeAndLinkCount) {
  for (std::size_t n : {2u, 5u, 10u, 30u}) {
    const auto t = make_clique(n);
    EXPECT_EQ(t.node_count(), n);
    EXPECT_EQ(t.link_count(), n * (n - 1) / 2);
    EXPECT_TRUE(t.connected());
  }
}

TEST(Clique, EveryPairAdjacent) {
  const auto t = make_clique(6);
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = 0; b < 6; ++b) {
      if (a != b) {
        EXPECT_TRUE(t.link_between(a, b).has_value());
      }
    }
  }
}

TEST(Clique, UniformDegree) {
  const auto t = make_clique(8);
  for (NodeId n = 0; n < 8; ++n) EXPECT_EQ(t.degree(n), 7u);
}

TEST(Clique, RejectsTooSmall) {
  EXPECT_THROW(make_clique(1), std::invalid_argument);
}

TEST(Chain, Structure) {
  const auto t = make_chain(5);
  EXPECT_EQ(t.node_count(), 5u);
  EXPECT_EQ(t.link_count(), 4u);
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(4), 1u);
  EXPECT_EQ(t.degree(2), 2u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.bfs_distances(0)[4], 4u);
}

TEST(Ring, Structure) {
  const auto t = make_ring(6);
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_EQ(t.link_count(), 6u);
  for (NodeId n = 0; n < 6; ++n) EXPECT_EQ(t.degree(n), 2u);
  // Opposite node is 3 hops around either way.
  EXPECT_EQ(t.bfs_distances(0)[3], 3u);
}

TEST(Ring, RejectsTooSmall) {
  EXPECT_THROW(make_ring(2), std::invalid_argument);
}

TEST(Star, Structure) {
  const auto t = make_star(7);
  EXPECT_EQ(t.node_count(), 7u);
  EXPECT_EQ(t.link_count(), 6u);
  EXPECT_EQ(t.degree(0), 6u);
  for (NodeId n = 1; n < 7; ++n) EXPECT_EQ(t.degree(n), 1u);
}

TEST(Tree, Structure) {
  const auto t = make_tree(7);  // complete binary tree of height 2
  EXPECT_EQ(t.link_count(), 6u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.degree(0), 2u);   // root
  EXPECT_EQ(t.degree(1), 3u);   // internal
  EXPECT_EQ(t.degree(6), 1u);   // leaf
  EXPECT_EQ(t.bfs_distances(0)[6], 2u);
}

TEST(Grid, Structure) {
  const auto t = make_grid(3, 4);
  EXPECT_EQ(t.node_count(), 12u);
  // links = rows*(cols-1) + cols*(rows-1) = 3*3 + 4*2 = 17
  EXPECT_EQ(t.link_count(), 17u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.degree(0), 2u);  // corner
  EXPECT_EQ(t.degree(5), 4u);  // interior (row 1, col 1)
}

TEST(BClique, NodeAndLinkCount) {
  // 2n nodes; links = (n-1) chain + n(n-1)/2 clique + 2 attachments.
  for (std::size_t n : {2u, 5u, 15u}) {
    const auto t = make_bclique(n);
    EXPECT_EQ(t.node_count(), 2 * n);
    EXPECT_EQ(t.link_count(), (n - 1) + n * (n - 1) / 2 + 2);
    EXPECT_TRUE(t.connected());
  }
}

TEST(BClique, Figure3Structure) {
  const std::size_t n = 5;
  const auto t = make_bclique(n);
  // Chain 0-1-2-3-4.
  for (NodeId a = 0; a + 1 < n; ++a) {
    EXPECT_TRUE(t.link_between(a, a + 1).has_value());
  }
  // Clique 5..9.
  for (NodeId a = n; a < 2 * n; ++a) {
    for (NodeId b = a + 1; b < 2 * n; ++b) {
      EXPECT_TRUE(t.link_between(a, b).has_value());
    }
  }
  // Attachments [0,n] and [n-1, 2n-1].
  EXPECT_TRUE(t.link_between(0, 5).has_value());
  EXPECT_TRUE(t.link_between(4, 9).has_value());
  // And no other cross links.
  EXPECT_FALSE(t.link_between(1, 6).has_value());
}

TEST(BClique, TlongLinkIsDirectAttachment) {
  const auto t = make_bclique(5);
  const net::LinkId l = bclique_tlong_link(t, 5);
  EXPECT_TRUE(t.link(l).attaches(0));
  EXPECT_TRUE(t.link(l).attaches(5));
}

TEST(BClique, BackupPathLengthAfterFailure) {
  // After failing [0, n], the clique reaches node 0 only via the chain:
  // distance from node n to 0 becomes 1 (to 2n-1) + 1 (to n-1) + (n-1).
  const std::size_t n = 6;
  auto t = make_bclique(n);
  t.set_link_state(bclique_tlong_link(t, n), false);
  EXPECT_TRUE(t.connected());
  const auto d = t.bfs_distances(static_cast<NodeId>(n));
  EXPECT_EQ(d[0], n + 1);
}

TEST(Generators, DefaultLinkDelayIsTwoMs) {
  const auto t = make_clique(3);
  EXPECT_EQ(t.link(0).delay, sim::SimTime::millis(2));
}

}  // namespace
}  // namespace bgpsim::topo
