// Incremental local-clustering-coefficient maintenance.
//
// graph::local_clustering_all() rescans every node's full neighborhood:
// O(sum deg^2) per call. The live service needs the paper's cc signal
// after every accepted friend request, and a new edge {u, v} can only
// change the coefficient of u, v, and their *common* neighbors (each
// common neighbor w gains exactly one edge — {u, v} — inside N(w), and
// u and v each gain |common| edges inside their own neighborhoods).
// This class keeps a per-node count of links-among-neighbors and folds
// each edge in as O(deg(u) + deg(v) + |common|):
//
//   on_edge_added(g, u, v)   after g.add_edge succeeded
//
// Coefficients are recomputed from the exact integer link counts with
// the same 2·links / (d·(d−1)) expression as the batch kernel, so they
// are bit-identical to local_clustering_all() on the same graph — the
// invariant the property suite pins after every arrival order.
//
// Single-threaded: each edge is a handful of row intersections, folded
// in on its shard's pump lane as the edge lands.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.h"
#include "io/container.h"

namespace sybil::detect {

class IncrementalClustering {
 public:
  IncrementalClustering() = default;

  /// Full rebuild of link counts + coefficients from the graph.
  void recompute(const graph::DynamicGraph& g);

  /// Folds edge {u, v} in. Call once per *successful* add_edge, after
  /// the insertion. Lazily initializes on first use.
  void on_edge_added(const graph::DynamicGraph& g, graph::NodeId u,
                     graph::NodeId v);

  bool initialized() const noexcept { return initialized_; }

  double coefficient(graph::NodeId u) const {
    return u < cc_.size() ? cc_[u] : 0.0;
  }
  const std::vector<double>& coefficients() const noexcept { return cc_; }

  /// Edges among N(u) (the exact integer the coefficient derives from).
  std::uint64_t links(graph::NodeId u) const {
    return u < links_.size() ? links_[u] : 0;
  }

  std::uint64_t edges_applied() const noexcept { return edges_applied_; }
  std::uint64_t triangles_closed() const noexcept { return triangles_closed_; }

  void serialize(io::ByteWriter& w) const;
  void restore(io::ByteReader& r);

 private:
  void refresh_coefficient(const graph::DynamicGraph& g, graph::NodeId u);

  bool initialized_ = false;
  std::vector<std::uint64_t> links_;  // edges among N(u), per node
  std::vector<double> cc_;
  std::uint64_t edges_applied_ = 0;
  std::uint64_t triangles_closed_ = 0;
};

}  // namespace sybil::detect
