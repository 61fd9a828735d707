#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace sybil::graph {
namespace {

TEST(Csr, FromTimestampedGraph) {
  TimestampedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  const CsrGraph csr = CsrGraph::from(g);
  EXPECT_EQ(csr.node_count(), 4u);
  EXPECT_EQ(csr.edge_count(), 3u);
  EXPECT_EQ(csr.degree(1), 2u);
  EXPECT_TRUE(csr.has_edge(1, 2));
  EXPECT_FALSE(csr.has_edge(0, 3));
}

TEST(Csr, PreservesNeighborOrder) {
  TimestampedGraph g(4);
  g.add_edge(0, 3, 1.0);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  const CsrGraph csr = CsrGraph::from(g);
  const auto nbrs = csr.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 3u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 2u);
}

TEST(Csr, FromEdgeList) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2}};
  const CsrGraph csr = CsrGraph::from_edges(3, edges);
  EXPECT_EQ(csr.edge_count(), 2u);
  EXPECT_TRUE(csr.has_edge(2, 1));
  EXPECT_EQ(csr.degree(0), 1u);
}

TEST(Csr, FromEdgesRejectsBadInput) {
  EXPECT_THROW(CsrGraph::from_edges(
                   2, std::vector<std::pair<NodeId, NodeId>>{{0, 2}}),
               std::out_of_range);
  EXPECT_THROW(CsrGraph::from_edges(
                   2, std::vector<std::pair<NodeId, NodeId>>{{1, 1}}),
               std::invalid_argument);
}

TEST(Csr, EdgesRoundTrip) {
  TimestampedGraph g(5);
  g.add_edge(0, 4, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(1, 2, 1.0);
  const CsrGraph csr = CsrGraph::from(g);
  auto edges = csr.edges();
  std::sort(edges.begin(), edges.end());
  const std::vector<std::pair<NodeId, NodeId>> expected = {
      {0, 4}, {1, 2}, {2, 3}};
  EXPECT_EQ(edges, expected);
}

TEST(Csr, EmptyGraph) {
  const CsrGraph csr;
  EXPECT_EQ(csr.node_count(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
}

TEST(Csr, IsolatedNodes) {
  TimestampedGraph g(10);
  g.add_edge(0, 9, 1.0);
  const CsrGraph csr = CsrGraph::from(g);
  for (NodeId u = 1; u < 9; ++u) EXPECT_EQ(csr.degree(u), 0u);
  EXPECT_TRUE(csr.neighbors(5).empty());
}

TEST(Csr, CopyOwnsItsArrays) {
  // A copy is a copy: clearing the original leaves it whole.
  TimestampedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.5);
  g.add_edge(0, 3, 3.0);
  CsrGraph original = CsrGraph::from(g);
  const CsrGraph copy = original;
  original = CsrGraph();
  EXPECT_EQ(copy.node_count(), 4u);
  EXPECT_EQ(copy.degree(0), 2u);
  EXPECT_EQ(copy.neighbors(1).size(), 2u);
}

TEST(SimpleGraphDefect, NamesEachDefect) {
  const auto defect = [](std::vector<std::uint64_t> offsets,
                         std::vector<NodeId> targets) {
    const char* why = simple_graph_defect(offsets, targets);
    return std::string(why == nullptr ? "" : why);
  };
  EXPECT_EQ(defect({0}, {}), "");
  EXPECT_EQ(defect({0, 2, 3, 4}, {1, 2, 0, 0}), "");
  EXPECT_EQ(defect({}, {}), "csr offsets do not bracket the target array");
  EXPECT_EQ(defect({1, 1}, {0}), "csr offsets do not bracket the target array");
  EXPECT_EQ(defect({0, 2, 1, 2}, {1, 0}), "csr offsets not monotonic");
  EXPECT_EQ(defect({0, 1, 2}, {1, 2}), "neighbor id out of range");
  EXPECT_EQ(defect({0, 2, 3, 4}, {0, 1, 0, 2}), "row lists a self-loop");
  EXPECT_EQ(defect({0, 2, 4}, {1, 1, 0, 0}), "row lists a neighbour twice");
  EXPECT_EQ(defect({0, 2, 3, 4}, {1, 2, 2, 0}), "rows are not symmetric");
}

}  // namespace
}  // namespace sybil::graph
