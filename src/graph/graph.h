// Timestamped undirected graph.
//
// This is the mutable, growable representation used while the OSN
// simulator runs: edges carry the simulation time at which the friendship
// was established, which is what enables the paper's temporal analysis of
// Sybil edge creation order (Fig 8). Algorithms that only need structure
// take a CsrGraph snapshot (see csr.h) for cache-friendly traversal.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace sybil::graph {

using NodeId = std::uint32_t;

/// Simulation time in hours since the epoch of the run.
using Time = double;

/// A half-edge as stored in an adjacency list.
///
/// `weak` marks ties created by stranger friend requests (no prior
/// relationship), as opposed to pre-existing friendships and friend-of-
/// friend introductions. The behavior models use it: people extend
/// their circle through *strong* ties, which is why a Sybil's victims
/// do not triangulate through the Sybil.
struct Neighbor {
  NodeId node;
  Time created_at;
  bool weak = false;
};

/// Growable undirected graph with edge-creation timestamps.
///
/// Invariants:
///  - no self-loops, no parallel edges;
///  - adjacency is symmetric (u in adj(v) iff v in adj(u), same timestamp);
///  - neighbors within a list appear in insertion (chronological) order,
///    which the temporal analyses rely on.
class TimestampedGraph {
 public:
  TimestampedGraph() = default;
  explicit TimestampedGraph(NodeId node_count) : adj_(node_count) {}

  NodeId node_count() const noexcept {
    return static_cast<NodeId>(adj_.size());
  }
  std::uint64_t edge_count() const noexcept { return edge_count_; }

  /// Appends a new isolated node and returns its id.
  NodeId add_node();

  /// Ensures ids [0, n) exist.
  void ensure_nodes(NodeId n);

  /// Adds undirected edge {u, v} at time t. Returns false (and changes
  /// nothing) if the edge already exists or u == v.
  /// Precondition: u, v < node_count().
  bool add_edge(NodeId u, NodeId v, Time t, bool weak = false);

  bool has_edge(NodeId u, NodeId v) const;

  /// Timestamp of edge {u, v}, or nullopt if absent.
  std::optional<Time> edge_time(NodeId u, NodeId v) const;

  /// Direct adjacency restore for snapshot loading: adopts the lists
  /// as-is (preserving per-node insertion order, which add_edge replay
  /// could not reproduce without the global edge order). Precondition:
  /// the half-edge count is even. The other invariants (symmetric, no
  /// self-loops or duplicates) are not checked here; every loader checks
  /// the result with simple_graph_defect() before handing it out.
  static TimestampedGraph from_adjacency(
      std::vector<std::vector<Neighbor>> adj);

  /// Neighbors of u in chronological insertion order.
  std::span<const Neighbor> neighbors(NodeId u) const {
    return adj_[u];
  }

  NodeId degree(NodeId u) const {
    return static_cast<NodeId>(adj_[u].size());
  }

 private:
  std::vector<std::vector<Neighbor>> adj_;
  std::uint64_t edge_count_ = 0;
};

}  // namespace sybil::graph
