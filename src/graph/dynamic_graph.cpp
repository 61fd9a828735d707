#include "graph/dynamic_graph.h"

#include <algorithm>

namespace sybil::graph {

bool DynamicGraph::add_edge(NodeId u, NodeId v, Time t, bool weak) {
  if (u == v) return false;  // before growing: a rejected edge adds no node
  rows_.ensure_nodes(std::max(u, v) + 1);
  return rows_.add_edge(u, v, t, weak);
}

void DynamicGraph::compact_rows(std::vector<std::uint64_t>& offsets,
                                std::vector<NodeId>& targets) const {
  const NodeId n = node_count();
  offsets.resize(static_cast<std::size_t>(n) + 1);
  targets.resize(2 * edge_count());
  offsets[0] = 0;
  std::uint64_t at = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const Neighbor& nb : rows_.neighbors(u)) targets[at++] = nb.node;
    offsets[u + 1] = at;
  }
}

}  // namespace sybil::graph
