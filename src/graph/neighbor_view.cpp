#include "graph/neighbor_view.h"

#include <algorithm>

#include "core/parallel.h"

namespace sybil::graph {

NeighborView::NeighborView(CsrGraph csr) : csr_(std::move(csr)) {
  const auto targets = csr_.targets();
  sorted_targets_.assign(targets.begin(), targets.end());
  // Each row is sorted independently, so the result is a pure function
  // of the snapshot — bit-identical for any SYBIL_THREADS.
  const auto off = csr_.offsets();
  core::parallel_for(csr_.node_count(), [&](const core::ChunkRange& c) {
    for (std::size_t u = c.begin; u < c.end; ++u) {
      std::sort(sorted_targets_.begin() + static_cast<std::ptrdiff_t>(off[u]),
                sorted_targets_.begin() +
                    static_cast<std::ptrdiff_t>(off[u + 1]));
    }
  });
}

bool NeighborView::has_edge(NodeId u, NodeId v) const {
  if (u >= node_count()) return false;
  const auto row = sorted(u);
  return std::binary_search(row.begin(), row.end(), v);
}

}  // namespace sybil::graph
