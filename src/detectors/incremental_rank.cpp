#include "detectors/incremental_rank.h"

#include <algorithm>
#include <cmath>

namespace sybil::detect {

namespace {

constexpr std::uint32_t kRankStateVersion = 1;

}  // namespace

std::size_t IncrementalSybilRank::auto_iterations(std::size_t n) const {
  if (opts_.iterations != 0) return opts_.iterations;
  return static_cast<std::size_t>(
      std::ceil(std::log2(std::max<double>(2.0, static_cast<double>(n)))));
}

void IncrementalSybilRank::recompute(const graph::DynamicGraph& g,
                                     std::span<const graph::NodeId> seeds) {
  const std::size_t n = g.node_count();
  seeds_.assign(seeds.begin(), seeds.end());
  iters_ = auto_iterations(n);
  layers_.assign(iters_ + 1, std::vector<double>(n, 0.0));
  if (!seeds_.empty()) {
    const double share = 1.0 / static_cast<double>(seeds_.size());
    for (const graph::NodeId s : seeds_) {
      if (s < n) layers_[0][s] += share;
    }
  }
  inv_degree_.assign(n, 0.0);
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto d = g.degree(u);
    if (d > 0) inv_degree_[u] = 1.0 / static_cast<double>(d);
  }
  // Same pull-sum in the same per-node arrival order as the batch
  // kernel (its CSR rows are chronological), hence bit-identical.
  for (std::size_t it = 1; it <= iters_; ++it) {
    const std::vector<double>& prev = layers_[it - 1];
    std::vector<double>& cur = layers_[it];
    for (graph::NodeId v = 0; v < n; ++v) {
      double sum = 0.0;
      for (const graph::Neighbor& nb : g.chronological(v)) {
        sum += prev[nb.node] * inv_degree_[nb.node];
      }
      cur[v] = sum;
    }
  }
  scores_ = layers_[iters_];
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto d = g.degree(u);
    if (d > 0) scores_[u] /= static_cast<double>(d);
  }
  node_count_ = n;
  initialized_ = true;
  ++full_recomputes_;
}

void IncrementalSybilRank::update(const graph::DynamicGraph& g,
                                  std::span<const graph::NodeId> dirty) {
  const std::size_t n = g.node_count();
  if (!initialized_ || auto_iterations(n) != iters_) {
    recompute(g, seeds_);
    return;
  }
  if (n > node_count_) {
    // New nodes enter with zero trust everywhere; the batch path gives
    // isolated nodes exactly zero too.
    for (auto& layer : layers_) layer.resize(n, 0.0);
    inv_degree_.resize(n, 0.0);
    scores_.resize(n, 0.0);
    node_count_ = n;
  }
  if (dirty.empty()) {
    ++incremental_updates_;
    return;
  }
  for (const graph::NodeId u : dirty) {
    const auto d = g.degree(u);
    inv_degree_[u] = d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
  }
  // Initial frontier: the dirty vertices plus everyone who pulls from
  // them (rows or 1/deg factors changed).
  std::vector<std::uint8_t> in_frontier(n, 0);
  std::vector<graph::NodeId> frontier;
  const auto enlist = [&](graph::NodeId v) {
    if (in_frontier[v] == 0) {
      in_frontier[v] = 1;
      frontier.push_back(v);
    }
  };
  for (const graph::NodeId u : dirty) {
    enlist(u);
    for (const graph::NodeId w : g.sorted_neighbors(u)) enlist(w);
  }
  if (static_cast<double>(frontier.size()) >
      opts_.full_recompute_fraction * static_cast<double>(n)) {
    recompute(g, seeds_);
    return;
  }
  ++incremental_updates_;
  std::sort(frontier.begin(), frontier.end());
  std::vector<graph::NodeId> additions;
  for (std::size_t it = 1; it <= iters_; ++it) {
    const std::vector<double>& prev = layers_[it - 1];
    std::vector<double>& cur = layers_[it];
    additions.clear();
    for (const graph::NodeId v : frontier) {
      double sum = 0.0;
      for (const graph::Neighbor& nb : g.chronological(v)) {
        sum += prev[nb.node] * inv_degree_[nb.node];
      }
      const double old = cur[v];
      cur[v] = sum;
      if (std::abs(sum - old) > opts_.residual_epsilon) {
        for (const graph::NodeId w : g.sorted_neighbors(v)) {
          if (in_frontier[w] == 0) {
            in_frontier[w] = 1;
            additions.push_back(w);
          }
        }
      }
    }
    propagated_total_ += frontier.size();
    ++rounds_total_;
    if (!additions.empty()) {
      frontier.insert(frontier.end(), additions.begin(), additions.end());
      std::sort(frontier.begin(), frontier.end());
    }
  }
  for (const graph::NodeId v : frontier) {
    const auto d = g.degree(v);
    scores_[v] = d > 0 ? layers_[iters_][v] / static_cast<double>(d)
                       : layers_[iters_][v];
  }
}

void IncrementalSybilRank::serialize(io::ByteWriter& w) const {
  w.write(kRankStateVersion);
  w.write(static_cast<std::uint8_t>(initialized_ ? 1 : 0));
  if (!initialized_) return;
  w.write(static_cast<std::uint64_t>(iters_));
  w.write(static_cast<std::uint64_t>(node_count_));
  w.write(static_cast<std::uint64_t>(seeds_.size()));
  for (const graph::NodeId s : seeds_) w.write(s);
  for (const auto& layer : layers_) {
    for (const double x : layer) w.write(x);
  }
  for (const double x : inv_degree_) w.write(x);
  for (const double x : scores_) w.write(x);
  w.write(full_recomputes_);
  w.write(incremental_updates_);
  w.write(rounds_total_);
  w.write(propagated_total_);
}

void IncrementalSybilRank::restore(io::ByteReader& r) {
  const auto version = r.read<std::uint32_t>();
  if (version != kRankStateVersion) {
    throw io::SnapshotError(io::SnapshotErrorCode::kUnsupportedVersion,
                            "incremental-rank state version mismatch");
  }
  const bool initialized = r.read<std::uint8_t>() != 0;
  if (!initialized) {
    initialized_ = false;
    iters_ = 0;
    node_count_ = 0;
    seeds_.clear();
    layers_.clear();
    inv_degree_.clear();
    scores_.clear();
    full_recomputes_ = incremental_updates_ = 0;
    rounds_total_ = propagated_total_ = 0;
    return;
  }
  const auto iters = r.read<std::uint64_t>();
  if (iters >= 1024) {
    throw io::SnapshotError(io::SnapshotErrorCode::kMalformedSection,
                            "incremental-rank iteration count implausible");
  }
  // Each node holds iters + 1 layer values, its inverse degree and its
  // score; each seed is one u32 id.
  const auto n = r.read_count((iters + 3) * sizeof(double));
  const auto seed_count = r.read_count(sizeof(graph::NodeId));
  seeds_.resize(seed_count);
  for (auto& s : seeds_) s = r.read<graph::NodeId>();
  layers_.assign(iters + 1, std::vector<double>(n));
  for (auto& layer : layers_) {
    for (auto& x : layer) x = r.read<double>();
  }
  inv_degree_.resize(n);
  for (auto& x : inv_degree_) x = r.read<double>();
  scores_.resize(n);
  for (auto& x : scores_) x = r.read<double>();
  full_recomputes_ = r.read<std::uint64_t>();
  incremental_updates_ = r.read<std::uint64_t>();
  rounds_total_ = r.read<std::uint64_t>();
  propagated_total_ = r.read<std::uint64_t>();
  iters_ = static_cast<std::size_t>(iters);
  node_count_ = static_cast<std::size_t>(n);
  initialized_ = true;
}

}  // namespace sybil::detect
