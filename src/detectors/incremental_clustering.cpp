#include "detectors/incremental_clustering.h"

#include <algorithm>

namespace sybil::detect {

namespace {

constexpr std::uint32_t kClusteringStateVersion = 1;

/// Two-pointer |a ∩ b| over ascending rows, optionally collecting the
/// members. Counts are exact integers, so any correct intersection
/// yields values bit-identical to the batch kernels'.
std::uint64_t intersect(std::span<const graph::NodeId> a,
                        std::span<const graph::NodeId> b,
                        std::vector<graph::NodeId>* out) {
  std::uint64_t hits = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++hits;
      if (out != nullptr) out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return hits;
}

}  // namespace

void IncrementalClustering::refresh_coefficient(const graph::DynamicGraph& g,
                                                graph::NodeId u) {
  const std::size_t d = g.degree(u);
  // Same expression as graph::local_clustering over the same exact
  // integers — bit-identical by construction.
  cc_[u] = d < 2 ? 0.0
                 : 2.0 * static_cast<double>(links_[u]) /
                       (static_cast<double>(d) * static_cast<double>(d - 1));
}

void IncrementalClustering::recompute(const graph::DynamicGraph& g) {
  const graph::NodeId n = g.node_count();
  links_.assign(n, 0);
  cc_.assign(n, 0.0);
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto row = g.sorted_neighbors(u);
    std::uint64_t twice = 0;
    for (const graph::NodeId w : row) {
      twice += intersect(row, g.sorted_neighbors(w), nullptr);
    }
    links_[u] = twice / 2;
    refresh_coefficient(g, u);
  }
  initialized_ = true;
}

void IncrementalClustering::on_edge_added(const graph::DynamicGraph& g,
                                          graph::NodeId u, graph::NodeId v) {
  if (!initialized_) {
    recompute(g);
    ++edges_applied_;
    return;
  }
  const graph::NodeId n = g.node_count();
  if (n > links_.size()) {
    links_.resize(n, 0);
    cc_.resize(n, 0.0);
  }
  std::vector<graph::NodeId> common;
  intersect(g.sorted_neighbors(u), g.sorted_neighbors(v), &common);
  for (const graph::NodeId w : common) {
    links_[w] += 1;  // N(w) gained edge {u, v}
    refresh_coefficient(g, w);
  }
  links_[u] += common.size();  // N(u) gained edges {v, w} for each common w
  links_[v] += common.size();
  refresh_coefficient(g, u);
  refresh_coefficient(g, v);
  triangles_closed_ += common.size();
  ++edges_applied_;
}

void IncrementalClustering::serialize(io::ByteWriter& w) const {
  w.write(kClusteringStateVersion);
  w.write(static_cast<std::uint8_t>(initialized_ ? 1 : 0));
  w.write(static_cast<std::uint64_t>(links_.size()));
  for (const std::uint64_t x : links_) w.write(x);
  for (const double x : cc_) w.write(x);
  w.write(edges_applied_);
  w.write(triangles_closed_);
}

void IncrementalClustering::restore(io::ByteReader& r) {
  const auto version = r.read<std::uint32_t>();
  if (version != kClusteringStateVersion) {
    throw io::SnapshotError(io::SnapshotErrorCode::kUnsupportedVersion,
                            "incremental-clustering state version mismatch");
  }
  initialized_ = r.read<std::uint8_t>() != 0;
  // Each node holds a u64 link count and an f64 coefficient.
  const auto n = r.read_count(sizeof(std::uint64_t) + sizeof(double));
  links_.resize(n);
  for (auto& x : links_) x = r.read<std::uint64_t>();
  cc_.resize(n);
  for (auto& x : cc_) x = r.read<double>();
  edges_applied_ = r.read<std::uint64_t>();
  triangles_closed_ = r.read<std::uint64_t>();
}

}  // namespace sybil::detect
