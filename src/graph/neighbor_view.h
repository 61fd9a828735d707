// One adjacency handle, two orderings.
//
// The paper's first-k clustering feature needs an account's neighbors in
// *chronological* (edge-creation) order to pick the first-50 prefix, and
// needs *sorted* adjacency to intersect neighbor lists cheaply. Before
// this view existed, call sites carried two graph handles for one
// logical graph — a TimestampedGraph for chronology plus a CsrGraph for
// lookups — and every mutual-link query paid a hash set plus a full
// adjacency scan.
//
// NeighborView collapses the pair: it takes one CSR snapshot whose rows
// are chronological (CsrGraph::from preserves insertion order) and
// builds a sorted twin of the targets array over the *same* offsets,
// once, in parallel. Algorithms then ask for whichever ordering they
// need:
//
//   chronological(u)  row as ingested (first-k prefixes, replay)
//   first_k(u, k)     the paper's first-k prefix, no copy
//   sorted(u)         ascending ids (galloping intersection, has_edge)
//
// Construction is O(E log deg) and the sorted twin is one contiguous
// allocation, so building a view per sweep amortizes across every
// candidate the sweep evaluates (see first_k_clustering_batch).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"

namespace sybil::graph {

class NeighborView {
 public:
  NeighborView() = default;

  /// Takes ownership of a CSR snapshot whose rows are in chronological
  /// order (what CsrGraph::from produces) and builds the sorted twin.
  /// Moving the graph in is cheap: the chronological side is not
  /// copied.
  explicit NeighborView(CsrGraph csr);

  /// Convenience: snapshot + view in one step.
  static NeighborView from(const TimestampedGraph& g) {
    return NeighborView(CsrGraph::from(g));
  }

  NodeId node_count() const noexcept { return csr_.node_count(); }
  std::uint64_t edge_count() const noexcept { return csr_.edge_count(); }
  NodeId degree(NodeId u) const { return csr_.degree(u); }

  /// Neighbors of u in edge-creation order (the CSR row as ingested).
  std::span<const NodeId> chronological(NodeId u) const {
    return csr_.neighbors(u);
  }

  /// The paper's prefix: u's first min(k, degree) friends by time.
  std::span<const NodeId> first_k(NodeId u, std::size_t k) const {
    const auto row = csr_.neighbors(u);
    return row.subspan(0, row.size() < k ? row.size() : k);
  }

  /// Neighbors of u in ascending id order.
  std::span<const NodeId> sorted(NodeId u) const {
    const auto off = csr_.offsets();
    return {sorted_targets_.data() + off[u],
            sorted_targets_.data() + off[u + 1]};
  }

  /// O(log degree) membership test over the sorted row.
  bool has_edge(NodeId u, NodeId v) const;

  /// The underlying chronological snapshot (for callers that still
  /// need a raw CsrGraph, e.g. the snapshot writer).
  const CsrGraph& csr() const noexcept { return csr_; }

 private:
  CsrGraph csr_;
  /// Sorted twin of csr_.targets(), aligned to the same offsets array.
  std::vector<NodeId> sorted_targets_;
};

}  // namespace sybil::graph
