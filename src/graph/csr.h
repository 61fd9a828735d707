// Immutable compressed-sparse-row snapshot of an undirected graph.
//
// All read-heavy algorithms (components, clustering, random walks,
// max-flow construction, sampling) run over this representation: one
// contiguous offsets array plus one contiguous targets array, which is
// dramatically more cache-friendly than per-node vectors for the
// multi-hundred-thousand-node runs the benches perform.
//
// A CsrGraph either owns its arrays (the from()/from_edges() builders)
// or is a zero-copy *view* over externally owned storage — the io layer
// uses view() to serve a graph directly out of an mmap'd snapshot
// without materializing the arrays (see io/graph_snapshot.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace sybil::graph {

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

  /// Adopts prebuilt CSR arrays as owning storage (no copy), such as
  /// the rows DynamicGraph::compact_rows writes.
  /// Preconditions: offsets is a valid CSR offset array (size n+1,
  /// non-decreasing, offsets[0] == 0, offsets[n] == targets.size()).
  static CsrGraph from_rows(std::vector<std::uint64_t> offsets,
                            std::vector<NodeId> targets);

  /// Zero-copy view over CSR arrays owned elsewhere; `backing` keeps the
  /// storage (e.g. a file mapping) alive for the view's lifetime.
  /// Preconditions: offsets is a valid CSR offset array (size n+1,
  /// non-decreasing, offsets[0] == 0, offsets[n] == targets.size()) —
  /// the snapshot loader validates before calling.
  static CsrGraph view(std::span<const std::uint64_t> offsets,
                       std::span<const NodeId> targets,
                       std::shared_ptr<const void> backing);

  // Owning copies re-anchor their spans onto the copied vectors; views
  // share the backing. Defaulted members would leave a copied owner's
  // spans pointing into the source.
  CsrGraph(const CsrGraph& other);
  CsrGraph& operator=(const CsrGraph& other);
  CsrGraph(CsrGraph&& other) noexcept;
  CsrGraph& operator=(CsrGraph&& other) noexcept;
  ~CsrGraph() = default;

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

  /// True when this graph references external storage instead of
  /// owning its arrays.
  bool is_view() const noexcept { return backing_ != nullptr; }

 private:
  void anchor() noexcept {
    offsets_ = offsets_store_;
    targets_ = targets_store_;
  }

  // Owning storage (empty for views).
  std::vector<std::uint64_t> offsets_store_;
  std::vector<NodeId> targets_store_;
  // The arrays algorithms read: either the stores above or external
  // memory kept alive by backing_.
  std::span<const std::uint64_t> offsets_;
  std::span<const NodeId> targets_;
  std::shared_ptr<const void> backing_;
};

}  // namespace sybil::graph
