#include "graph/csr.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sybil::graph {

void compact_rows(const TimestampedGraph& g,
                  std::vector<std::uint64_t>& offsets,
                  std::vector<NodeId>& targets) {
  const NodeId n = g.node_count();
  offsets.resize(static_cast<std::size_t>(n) + 1);
  targets.resize(2 * g.edge_count());
  offsets[0] = 0;
  std::uint64_t at = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const Neighbor& nb : g.neighbors(u)) targets[at++] = nb.node;
    offsets[u + 1] = at;
  }
}

const char* simple_graph_defect(std::span<const std::uint64_t> offsets,
                                std::span<const NodeId> targets) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != targets.size()) {
    return "csr offsets do not bracket the target array";
  }
  if (!std::is_sorted(offsets.begin(), offsets.end())) {
    return "csr offsets not monotonic";
  }
  const std::uint64_t n = offsets.size() - 1;
  if (n > std::numeric_limits<NodeId>::max()) {
    return "node count exceeds NodeId range";
  }
  for (const NodeId v : targets) {
    if (v >= n) return "neighbor id out of range";
  }
  // The mirror rows: v's lists, ascending, every u whose row lists v.
  // Symmetric rows have mirror rows of the same lengths (so the same
  // offsets), holding the same nodes.
  std::vector<std::uint64_t> at(n, 0);
  for (const NodeId v : targets) ++at[v];
  for (std::uint64_t v = 0; v < n; ++v) {
    if (at[v] != offsets[v + 1] - offsets[v]) return "rows are not symmetric";
    at[v] = offsets[v];
  }
  std::vector<NodeId> mirror(targets.size());
  for (std::uint64_t u = 0; u < n; ++u) {
    for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      mirror[at[targets[k]]++] = static_cast<NodeId>(u);
    }
  }
  // A mirror row is strictly ascending unless some row lists a
  // neighbour twice, and lists v only if v's own row does. Once every
  // mirror row passes, no row repeats a neighbour, so a row of the same
  // length whose nodes all sit in its mirror row equals it.
  std::vector<NodeId> seen(n, 0);  // v + 1 marks v's mirror row
  for (std::uint64_t v = 0; v < n; ++v) {
    const auto stamp = static_cast<NodeId>(v + 1);
    for (std::uint64_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      if (mirror[k] == v) return "row lists a self-loop";
      if (k > offsets[v] && mirror[k] == mirror[k - 1]) {
        return "row lists a neighbour twice";
      }
      seen[mirror[k]] = stamp;
    }
    for (std::uint64_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      if (seen[targets[k]] != stamp) return "rows are not symmetric";
    }
  }
  return nullptr;
}

CsrGraph CsrGraph::from(const TimestampedGraph& g) {
  CsrGraph csr;
  compact_rows(g, csr.offsets_, csr.targets_);
  return csr;
}

CsrGraph CsrGraph::from_edges(
    NodeId node_count, std::span<const std::pair<NodeId, NodeId>> edges) {
  CsrGraph csr;
  csr.offsets_.assign(static_cast<std::size_t>(node_count) + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u >= node_count || v >= node_count) {
      throw std::out_of_range("csr: edge endpoint out of range");
    }
    if (u == v) throw std::invalid_argument("csr: self-loop");
    ++csr.offsets_[u + 1];
    ++csr.offsets_[v + 1];
  }
  for (std::size_t i = 1; i < csr.offsets_.size(); ++i) {
    csr.offsets_[i] += csr.offsets_[i - 1];
  }
  csr.targets_.resize(csr.offsets_.back());
  std::vector<std::uint64_t> cursor(csr.offsets_.begin(),
                                    csr.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    csr.targets_[cursor[u]++] = v;
    csr.targets_[cursor[v]++] = u;
  }
  return csr;
}

CsrGraph CsrGraph::from_rows(std::vector<std::uint64_t> offsets,
                             std::vector<NodeId> targets) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != targets.size() ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    throw std::invalid_argument("csr from_rows: malformed offsets");
  }
  CsrGraph csr;
  csr.offsets_ = std::move(offsets);
  csr.targets_ = std::move(targets);
  return csr;
}

bool CsrGraph::has_edge(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
}

std::vector<std::pair<NodeId, NodeId>> CsrGraph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

}  // namespace sybil::graph
