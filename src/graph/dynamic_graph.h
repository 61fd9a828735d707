// Growable graph for the live service's defense tier.
//
// The static pipeline snapshots a TimestampedGraph into a CsrGraph once
// and runs batch algorithms over it. The live service grows its graph
// one accepted friend request at a time and reads it only at a sweep
// (the rank refresh) or a flag drain (the clustering signal).
// DynamicGraph is a TimestampedGraph with the two things that needs:
//
//   add_edge(u, v, t)   grows the node range to cover both endpoints,
//                       then TimestampedGraph::add_edge (duplicate scan
//                       of the shorter row + two appends)
//   compact_rows()      the rows as CSR arrays, written into
//                       caller-owned buffers
//
// Each node keeps one row, in arrival order. The rows match what
// CsrGraph::from(TimestampedGraph) would produce for the same arrival
// sequence, which is what lets the service's SybilRank pin bit-exactness
// against the batch path.
//
// Not thread-safe; the service drives one DynamicGraph per shard from
// that shard's (serial) pump lane.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace sybil::graph {

class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Adopts a static base's rows as the graph so far.
  explicit DynamicGraph(TimestampedGraph base) : rows_(std::move(base)) {}

  NodeId node_count() const noexcept { return rows_.node_count(); }
  std::uint64_t edge_count() const noexcept { return rows_.edge_count(); }

  /// Ensures ids [0, n) exist. New nodes are isolated.
  void ensure_nodes(NodeId n) { rows_.ensure_nodes(n); }

  /// Adds undirected edge {u, v} at time t. Returns false (and changes
  /// nothing) for self-loops and duplicate edges. Endpoints beyond the
  /// current node count grow the graph (callers bound ids before
  /// offering — the service reuses IngestOptions::max_account_id).
  bool add_edge(NodeId u, NodeId v, Time t, bool weak = false);

  /// False for ids beyond the node count.
  bool has_edge(NodeId u, NodeId v) const {
    return u < node_count() && v < node_count() && rows_.has_edge(u, v);
  }

  NodeId degree(NodeId u) const { return rows_.degree(u); }

  /// Neighbors of u in arrival order, with timestamps.
  std::span<const Neighbor> chronological(NodeId u) const {
    return rows_.neighbors(u);
  }

  /// Writes the rows as CSR arrays: row u is targets[offsets[u],
  /// offsets[u+1]), in arrival order. Reuses the buffers' capacity, so
  /// a caller that compacts a growing graph repeatedly allocates only
  /// when it grows past what it held.
  void compact_rows(std::vector<std::uint64_t>& offsets,
                    std::vector<NodeId>& targets) const;

 private:
  TimestampedGraph rows_;
};

}  // namespace sybil::graph
