// Growable graph with edge-arrival deltas and dirty-vertex tracking.
//
// The static pipeline snapshots a TimestampedGraph into a CsrGraph once
// and runs batch algorithms over it. The live service grows its graph
// one accepted friend request at a time; detect::IncrementalClustering
// folds each edge in as it lands, and the service's rank refresh only
// wants to know *whether* anything changed since it last looked.
// DynamicGraph is that delta API:
//
//   add_edge(u, v, t)   O(deg) sorted insert + chronological append;
//                       marks both endpoints dirty
//   dirty()             the distinct vertices touched since the last
//                       clear_dirty(), ascending
//   compact_rows()      the chronological rows as CSR arrays, written
//                       into caller-owned buffers
//
// Each node keeps a chronological row (append) and a sorted row
// (ordered insert), so duplicate checks are a binary search. The
// chronological rows match what CsrGraph::from(TimestampedGraph) would
// produce for the same arrival sequence, which is what lets the
// service's SybilRank pin bit-exactness against the batch path.
//
// Not thread-safe; the service drives one DynamicGraph per shard from
// that shard's (serial) pump lane.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace sybil::graph {

class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Seeds the dynamic graph from a static base (rows copied; sorted
  /// twins built once). Nothing is marked dirty — the base is the
  /// "already scored" state.
  explicit DynamicGraph(const TimestampedGraph& base);

  NodeId node_count() const noexcept {
    return static_cast<NodeId>(chrono_.size());
  }
  std::uint64_t edge_count() const noexcept { return edge_count_; }

  /// Ensures ids [0, n) exist. New nodes are isolated and not dirty.
  void ensure_nodes(NodeId n);

  /// Adds undirected edge {u, v} at time t and marks both endpoints
  /// dirty. Returns false (and changes nothing, including dirtiness)
  /// for self-loops and duplicate edges. Endpoints beyond the current
  /// node count grow the graph (callers bound ids before offering —
  /// the service reuses IngestOptions::max_account_id).
  bool add_edge(NodeId u, NodeId v, Time t, bool weak = false);

  bool has_edge(NodeId u, NodeId v) const;

  NodeId degree(NodeId u) const {
    return static_cast<NodeId>(chrono_[u].size());
  }

  /// Neighbors of u in arrival order, with timestamps.
  std::span<const Neighbor> chronological(NodeId u) const {
    return chrono_[u];
  }

  /// Neighbors of u in ascending id order.
  std::span<const NodeId> sorted_neighbors(NodeId u) const {
    return sorted_[u];
  }

  /// Distinct vertices with edge activity since the last clear_dirty(),
  /// in ascending id order.
  std::span<const NodeId> dirty() const;

  /// True when u is in the current dirty set.
  bool is_dirty(NodeId u) const {
    return u < dirty_flag_.size() && dirty_flag_[u] != 0;
  }

  /// Re-marks a vertex dirty without touching edges. Checkpoint restore
  /// uses this to rebuild the pending dirty set a crash interrupted.
  void mark_dirty(NodeId u);

  void clear_dirty();

  /// Writes the chronological rows as CSR arrays: row u is
  /// targets[offsets[u], offsets[u+1]), in arrival order. Reuses the
  /// buffers' capacity, so a caller that compacts a growing graph
  /// repeatedly allocates only when it grows past what it held.
  void compact_rows(std::vector<std::uint64_t>& offsets,
                    std::vector<NodeId>& targets) const;

 private:
  std::vector<std::vector<Neighbor>> chrono_;
  std::vector<std::vector<NodeId>> sorted_;
  std::uint64_t edge_count_ = 0;

  // Dirty set: byte mask for O(1) dedup plus the insertion log; dirty()
  // sorts the log lazily.
  std::vector<std::uint8_t> dirty_flag_;
  mutable std::vector<NodeId> dirty_;
  mutable bool dirty_sorted_ = true;
};

}  // namespace sybil::graph
