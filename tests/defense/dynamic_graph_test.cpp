// graph::DynamicGraph unit + property suite: the growable graph the
// service's defense scorer (service/defense_scorer.h) is built on.
// The load-bearing property is the last test: after ANY arrival order,
// the rows are indistinguishable from the batch NeighborView::from() of
// a TimestampedGraph that replayed the same arrivals, row by row. That
// equivalence is what lets the service's SybilRank and clustering pin
// bit-exactness against the batch kernels (incremental_test.cpp).
#include <gtest/gtest.h>

#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/neighbor_view.h"
#include "stats/rng.h"
#include "support/graph_rows.h"

namespace sybil::graph {
namespace {

TEST(DynamicGraph, StartsEmpty) {
  DynamicGraph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(graphtest::view_of(g).node_count(), 0u);
}

TEST(DynamicGraph, EnsureNodesCreatesIsolatedCleanNodes) {
  DynamicGraph g;
  g.ensure_nodes(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.degree(u), 0u);
  g.ensure_nodes(3);  // shrinking is a no-op
  EXPECT_EQ(g.node_count(), 5u);
}

TEST(DynamicGraph, RejectsSelfLoopsAndDuplicates) {
  DynamicGraph g;
  EXPECT_FALSE(g.add_edge(2, 2, 0.0));
  EXPECT_EQ(g.edge_count(), 0u);

  EXPECT_TRUE(g.add_edge(1, 3, 1.0));
  EXPECT_FALSE(g.add_edge(1, 3, 2.0)) << "duplicate";
  EXPECT_FALSE(g.add_edge(3, 1, 2.0)) << "duplicate, reversed";
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(DynamicGraph, AddEdgeGrowsAndMaintainsBothOrderings) {
  DynamicGraph g;
  // Arrivals deliberately out of id order.
  ASSERT_TRUE(g.add_edge(4, 1, 0.5));
  ASSERT_TRUE(g.add_edge(4, 3, 1.5));
  ASSERT_TRUE(g.add_edge(4, 0, 2.5, /*weak=*/true));
  ASSERT_TRUE(g.add_edge(0, 2, 3.5));
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);

  // Chronological row: arrival order, timestamps and weak bit intact.
  const auto chrono = g.chronological(4);
  ASSERT_EQ(chrono.size(), 3u);
  EXPECT_EQ(chrono[0].node, 1u);
  EXPECT_EQ(chrono[1].node, 3u);
  EXPECT_EQ(chrono[2].node, 0u);
  EXPECT_DOUBLE_EQ(chrono[0].created_at, 0.5);
  EXPECT_DOUBLE_EQ(chrono[2].created_at, 2.5);
  EXPECT_FALSE(chrono[0].weak);
  EXPECT_TRUE(chrono[2].weak);

  // Sorted row: ascending ids over the same neighbors, as a batch view
  // of the compacted rows sorts them.
  const NeighborView view = graphtest::view_of(g);
  const auto sorted = view.sorted(4);
  EXPECT_EQ(std::vector<NodeId>(sorted.begin(), sorted.end()),
            (std::vector<NodeId>{0, 1, 3}));

  EXPECT_TRUE(g.has_edge(4, 0));
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(4, 9)) << "beyond the node count";
  EXPECT_FALSE(g.has_edge(9, 4));
}

TEST(DynamicGraph, SeedingFromBaseCopiesRowsAndStaysClean) {
  stats::Rng rng(17);
  const TimestampedGraph base = erdos_renyi(80, 0.08, rng);
  const DynamicGraph g(base);

  EXPECT_EQ(g.node_count(), base.node_count());
  EXPECT_EQ(g.edge_count(), base.edge_count());
  for (NodeId u = 0; u < base.node_count(); ++u) {
    const auto want = base.neighbors(u);
    const auto got = g.chronological(u);
    ASSERT_EQ(got.size(), want.size()) << u;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node) << u;
      EXPECT_EQ(got[i].created_at, want[i].created_at) << u;
      EXPECT_TRUE(g.has_edge(want[i].node, u)) << u;
    }
  }
}

// The equivalence property: for a random arrival sequence (with
// duplicate and self-loop noise), the view of the compacted rows must
// equal the batch NeighborView built from a TimestampedGraph replaying
// the same arrivals — offsets, chronological rows and sorted rows — and
// has_edge must answer as the batch graph does for every pair.
TEST(DynamicGraph, ViewMatchesBatchSnapshotUnderRandomArrivals) {
  stats::Rng rng(23);
  constexpr NodeId kNodes = 120;

  DynamicGraph dyn;
  dyn.ensure_nodes(kNodes);
  TimestampedGraph batch(kNodes);

  for (int i = 0; i < 1500; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(kNodes));
    const auto v = static_cast<NodeId>(rng.uniform_index(kNodes));
    const double t = static_cast<double>(i);
    if (u == v) {
      EXPECT_FALSE(dyn.add_edge(u, v, t));
      continue;
    }
    EXPECT_EQ(dyn.add_edge(u, v, t), batch.add_edge(u, v, t))
        << "arrival " << i;
  }
  ASSERT_GT(dyn.edge_count(), 500u);
  EXPECT_EQ(dyn.edge_count(), batch.edge_count());

  const NeighborView got = graphtest::view_of(dyn);
  const NeighborView want = NeighborView::from(batch);
  ASSERT_EQ(got.node_count(), want.node_count());
  ASSERT_EQ(got.edge_count(), want.edge_count());
  for (NodeId u = 0; u < kNodes; ++u) {
    const auto gc = got.chronological(u);
    const auto wc = want.chronological(u);
    ASSERT_EQ(std::vector<NodeId>(gc.begin(), gc.end()),
              std::vector<NodeId>(wc.begin(), wc.end()))
        << "chronological row " << u;
    const auto gs = got.sorted(u);
    const auto ws = want.sorted(u);
    ASSERT_EQ(std::vector<NodeId>(gs.begin(), gs.end()),
              std::vector<NodeId>(ws.begin(), ws.end()))
        << "sorted row " << u;
    for (NodeId v = 0; v < kNodes; ++v) {
      ASSERT_EQ(dyn.has_edge(u, v), batch.has_edge(u, v)) << u << "-" << v;
    }
  }
}

}  // namespace
}  // namespace sybil::graph
