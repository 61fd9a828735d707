// Adjacency rows that are not a simple undirected graph, one per defect
// graph::simple_graph_defect() names, for the loader refusal tests.
// Each has an even half-edge count, so only the adjacency check can
// refuse it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "io/error.h"

namespace sybil::graphtest {

using Rows = std::vector<std::vector<graph::NodeId>>;

struct NonSimpleRows {
  const char* defect;
  Rows rows;
};

inline std::vector<NonSimpleRows> non_simple_rows() {
  return {
      {"self-loop", {{0, 1}, {0}, {2}}},
      {"duplicate", {{1, 1}, {0, 0}, {}}},
      {"asymmetric", {{1, 2}, {2}, {0}}},
  };
}

/// A simple graph of the same size: the control every loader accepts.
inline Rows simple_rows() { return {{1, 2}, {0}, {0}}; }

/// `rows` as adjacency lists (every half edge at time 1.0).
inline std::vector<std::vector<graph::Neighbor>> adjacency_of(
    const Rows& rows) {
  std::vector<std::vector<graph::Neighbor>> adj(rows.size());
  for (std::size_t u = 0; u < rows.size(); ++u) {
    for (const graph::NodeId v : rows[u]) adj[u].push_back({v, 1.0, false});
  }
  return adj;
}

/// `rows` as a CsrGraph (from_rows checks only the offsets).
inline graph::CsrGraph csr_of(const Rows& rows) {
  std::vector<std::uint64_t> offsets = {0};
  std::vector<graph::NodeId> targets;
  for (const auto& row : rows) {
    targets.insert(targets.end(), row.begin(), row.end());
    offsets.push_back(targets.size());
  }
  return graph::CsrGraph::from_rows(std::move(offsets), std::move(targets));
}

/// Runs `load` and expects the adjacency check's refusal.
template <typename Load>
void expect_format_violation(Load load) {
  try {
    load();
    ADD_FAILURE() << "rows that are not a simple graph loaded";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kFormatViolation) << e.what();
  }
}

}  // namespace sybil::graphtest
