// Immutable compressed-sparse-row snapshot of an undirected graph.
//
// All read-heavy algorithms (components, clustering, random walks,
// max-flow construction, sampling) run over this representation: one
// contiguous offsets array plus one contiguous targets array, which is
// dramatically more cache-friendly than per-node vectors for the
// multi-hundred-thousand-node runs the benches perform.
//
// A CsrGraph owns its two arrays. compact_rows() is the one rows→CSR
// loop (CsrGraph::from and the live defense tier's refresh both run
// it), and simple_graph_defect() is the one adjacency check every
// loader of untrusted rows runs.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace sybil::graph {

/// Writes g's rows as CSR arrays: row u is targets[offsets[u],
/// offsets[u+1]), in arrival order. Reuses the buffers' capacity, so a
/// caller that compacts a growing graph repeatedly allocates only when
/// it grows past what it held.
void compact_rows(const TimestampedGraph& g,
                  std::vector<std::uint64_t>& offsets,
                  std::vector<NodeId>& targets);

/// Why CSR arrays are not a simple undirected graph — a malformed
/// offset array, a target out of range, a self-loop, a neighbour listed
/// twice, or v in u's row without u in v's — or nullptr when they are
/// one. O(V + E) time and memory.
const char* simple_graph_defect(std::span<const std::uint64_t> offsets,
                                std::span<const NodeId> targets);

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Snapshot of a timestamped graph (timestamps are dropped; neighbor
  /// order within a row is preserved).
  static CsrGraph from(const TimestampedGraph& g);

  /// Builds from an explicit undirected edge list over nodes [0, n).
  /// Self-loops and duplicate edges must already be removed.
  static CsrGraph from_edges(NodeId node_count,
                             std::span<const std::pair<NodeId, NodeId>> edges);

  /// Adopts prebuilt CSR arrays (no copy). Throws std::invalid_argument
  /// unless offsets is a valid CSR offset array (size n+1,
  /// non-decreasing, offsets[0] == 0, offsets[n] == targets.size()).
  static CsrGraph from_rows(std::vector<std::uint64_t> offsets,
                            std::vector<NodeId> targets);

  NodeId node_count() const noexcept {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }
  std::uint64_t edge_count() const noexcept { return targets_.size() / 2; }

  std::span<const NodeId> neighbors(NodeId u) const {
    return {targets_.data() + offsets_[u],
            targets_.data() + offsets_[u + 1]};
  }

  NodeId degree(NodeId u) const {
    return static_cast<NodeId>(offsets_[u + 1] - offsets_[u]);
  }

  /// O(degree) membership test.
  bool has_edge(NodeId u, NodeId v) const;

  /// All undirected edges as (u, v) with u < v, in row order.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Raw CSR arrays (what the snapshot writer serializes).
  std::span<const std::uint64_t> offsets() const noexcept { return offsets_; }
  std::span<const NodeId> targets() const noexcept { return targets_; }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> targets_;
};

}  // namespace sybil::graph
