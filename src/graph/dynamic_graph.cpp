#include "graph/dynamic_graph.h"

#include <algorithm>

namespace sybil::graph {

DynamicGraph::DynamicGraph(const TimestampedGraph& base) {
  const NodeId n = base.node_count();
  chrono_.resize(n);
  sorted_.resize(n);
  dirty_flag_.assign(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    const auto row = base.neighbors(u);
    chrono_[u].assign(row.begin(), row.end());
    sorted_[u].resize(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) sorted_[u][i] = row[i].node;
    std::sort(sorted_[u].begin(), sorted_[u].end());
  }
  edge_count_ = base.edge_count();
}

void DynamicGraph::ensure_nodes(NodeId n) {
  if (n <= node_count()) return;
  chrono_.resize(n);
  sorted_.resize(n);
  dirty_flag_.resize(n, 0);
}

bool DynamicGraph::add_edge(NodeId u, NodeId v, Time t, bool weak) {
  if (u == v) return false;
  ensure_nodes(std::max(u, v) + 1);
  auto& su = sorted_[u];
  const auto it = std::lower_bound(su.begin(), su.end(), v);
  if (it != su.end() && *it == v) return false;  // duplicate
  su.insert(it, v);
  auto& sv = sorted_[v];
  sv.insert(std::lower_bound(sv.begin(), sv.end(), u), u);
  chrono_[u].push_back(Neighbor{v, t, weak});
  chrono_[v].push_back(Neighbor{u, t, weak});
  ++edge_count_;
  if (dirty_flag_[u] == 0) {
    dirty_flag_[u] = 1;
    dirty_.push_back(u);
    dirty_sorted_ = false;
  }
  if (dirty_flag_[v] == 0) {
    dirty_flag_[v] = 1;
    dirty_.push_back(v);
    dirty_sorted_ = false;
  }
  return true;
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const {
  if (u >= node_count()) return false;
  const auto& su = sorted_[u];
  return std::binary_search(su.begin(), su.end(), v);
}

std::span<const NodeId> DynamicGraph::dirty() const {
  if (!dirty_sorted_) {
    std::sort(dirty_.begin(), dirty_.end());
    dirty_sorted_ = true;
  }
  return dirty_;
}

void DynamicGraph::mark_dirty(NodeId u) {
  ensure_nodes(u + 1);
  if (dirty_flag_[u] != 0) return;
  dirty_flag_[u] = 1;
  dirty_.push_back(u);
  dirty_sorted_ = false;
}

void DynamicGraph::clear_dirty() {
  for (const NodeId u : dirty_) dirty_flag_[u] = 0;
  dirty_.clear();
  dirty_sorted_ = true;
}

void DynamicGraph::compact_rows(std::vector<std::uint64_t>& offsets,
                                std::vector<NodeId>& targets) const {
  const NodeId n = node_count();
  offsets.resize(static_cast<std::size_t>(n) + 1);
  targets.resize(2 * edge_count_);
  offsets[0] = 0;
  std::uint64_t at = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const Neighbor& nb : chrono_[u]) targets[at++] = nb.node;
    offsets[u + 1] = at;
  }
}

}  // namespace sybil::graph
