// The defense scorer's dynamic graph (service/defense_scorer.h): a
// graph::TimestampedGraph grown one arrival at a time through the calls
// DefenseScorer::observe() makes (ensure_nodes, then add_edge), and read
// as CSR through graph::compact_rows() into buffers kept across
// refreshes, as DefenseScorer::refresh() does.
// The load-bearing property is the last test: after ANY arrival order,
// the compacted rows are indistinguishable from the batch
// NeighborView::from() of a fixed-size TimestampedGraph that took the
// same arrivals, row by row. That equivalence is what lets the
// service's SybilRank and clustering pin bit-exactness against the
// batch kernels (incremental_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/neighbor_view.h"
#include "stats/rng.h"

namespace sybil::graph {
namespace {

// One friendship arrival, through observe()'s two calls.
bool arrive(TimestampedGraph& g, NodeId u, NodeId v, Time t,
            bool weak = false) {
  g.ensure_nodes(std::max(u, v) + 1);
  return g.add_edge(u, v, t, weak);
}

NeighborView view_of(const TimestampedGraph& g) {
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> targets;
  compact_rows(g, offsets, targets);
  return NeighborView(CsrGraph::from_rows(std::move(offsets),
                                          std::move(targets)));
}

TEST(DynamicGraph, StartsEmpty) {
  TimestampedGraph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(view_of(g).node_count(), 0u);
}

TEST(DynamicGraph, EnsureNodesCreatesIsolatedCleanNodes) {
  TimestampedGraph g;
  g.ensure_nodes(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.degree(u), 0u);
  g.ensure_nodes(3);  // shrinking is a no-op
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(view_of(g).node_count(), 5u);
}

TEST(DynamicGraph, RejectsSelfLoopsAndDuplicates) {
  TimestampedGraph g;
  EXPECT_FALSE(arrive(g, 2, 2, 0.0));
  EXPECT_EQ(g.edge_count(), 0u);

  EXPECT_TRUE(arrive(g, 1, 3, 1.0));
  EXPECT_FALSE(arrive(g, 1, 3, 2.0)) << "duplicate";
  EXPECT_FALSE(arrive(g, 3, 1, 2.0)) << "duplicate, reversed";
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(DynamicGraph, AddEdgeGrowsAndMaintainsBothOrderings) {
  TimestampedGraph g;
  // Arrivals deliberately out of id order.
  ASSERT_TRUE(arrive(g, 4, 1, 0.5));
  ASSERT_TRUE(arrive(g, 4, 3, 1.5));
  ASSERT_TRUE(arrive(g, 4, 0, 2.5, /*weak=*/true));
  ASSERT_TRUE(arrive(g, 0, 2, 3.5));
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);

  // Chronological row: arrival order, timestamps and weak bit intact.
  const auto chrono = g.neighbors(4);
  ASSERT_EQ(chrono.size(), 3u);
  EXPECT_EQ(chrono[0].node, 1u);
  EXPECT_EQ(chrono[1].node, 3u);
  EXPECT_EQ(chrono[2].node, 0u);
  EXPECT_DOUBLE_EQ(chrono[0].created_at, 0.5);
  EXPECT_DOUBLE_EQ(chrono[2].created_at, 2.5);
  EXPECT_FALSE(chrono[0].weak);
  EXPECT_TRUE(chrono[2].weak);

  // The compacted rows keep arrival order; their view sorts them.
  const NeighborView view = view_of(g);
  const auto compacted = view.chronological(4);
  EXPECT_EQ(std::vector<NodeId>(compacted.begin(), compacted.end()),
            (std::vector<NodeId>{1, 3, 0}));
  const auto sorted = view.sorted(4);
  EXPECT_EQ(std::vector<NodeId>(sorted.begin(), sorted.end()),
            (std::vector<NodeId>{0, 1, 3}));

  EXPECT_TRUE(g.has_edge(4, 0));
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_FALSE(g.has_edge(1, 3));
}

// The equivalence property: for a random arrival sequence (with
// duplicate and self-loop noise) into a graph that grows as ids arrive,
// the rows compact_rows writes into reused buffers must equal the batch
// NeighborView built from a fixed-size TimestampedGraph taking the same
// arrivals — offsets, chronological rows and sorted rows — at every
// checkpoint, and has_edge must answer as the batch graph does for
// every pair.
TEST(DynamicGraph, ViewMatchesBatchSnapshotUnderRandomArrivals) {
  stats::Rng rng(23);
  constexpr NodeId kNodes = 120;

  TimestampedGraph dyn;
  TimestampedGraph batch(kNodes);
  std::vector<std::uint64_t> offsets;  // reused across refreshes
  std::vector<NodeId> targets;

  for (int i = 0; i < 1500; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(kNodes));
    const auto v = static_cast<NodeId>(rng.uniform_index(kNodes));
    const double t = static_cast<double>(i);
    if (u == v) {
      EXPECT_FALSE(arrive(dyn, u, v, t));
      continue;
    }
    EXPECT_EQ(arrive(dyn, u, v, t), batch.add_edge(u, v, t))
        << "arrival " << i;
    if (i % 100 != 99) continue;

    compact_rows(dyn, offsets, targets);
    EXPECT_EQ(simple_graph_defect(offsets, targets), nullptr);
    const CsrGraph want = CsrGraph::from(batch);
    const NodeId n = dyn.node_count();
    ASSERT_TRUE(std::equal(offsets.begin(), offsets.end(),
                           want.offsets().begin(),
                           want.offsets().begin() + n + 1))
        << "arrival " << i;
    ASSERT_TRUE(std::equal(targets.begin(), targets.end(),
                           want.targets().begin(), want.targets().end()))
        << "arrival " << i;
  }
  ASSERT_GT(dyn.edge_count(), 500u);
  EXPECT_EQ(dyn.edge_count(), batch.edge_count());
  ASSERT_EQ(dyn.node_count(), kNodes);

  compact_rows(dyn, offsets, targets);
  for (NodeId u = 0; u < kNodes; ++u) {
    const auto row = dyn.neighbors(u);
    for (std::size_t k = 0; k < row.size(); ++k) {
      ASSERT_EQ(targets[offsets[u] + k], row[k].node) << "arrival order";
    }
  }
  const NeighborView got(CsrGraph::from_rows(offsets, targets));
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
