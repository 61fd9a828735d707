// Batch-reference snapshots of a live graph::DynamicGraph.
//
// The incremental defenses are pinned to the batch kernels run over the
// same graph. These helpers hand a DynamicGraph's chronological rows
// (DynamicGraph::compact_rows) to the batch side as the CsrGraph or
// NeighborView it takes — the rows CsrGraph::from(TimestampedGraph)
// builds for the same arrival sequence.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/dynamic_graph.h"
#include "graph/neighbor_view.h"

namespace sybil::graphtest {

inline graph::CsrGraph csr_of(const graph::DynamicGraph& g) {
  std::vector<std::uint64_t> offsets;
  std::vector<graph::NodeId> targets;
  g.compact_rows(offsets, targets);
  return graph::CsrGraph::from_rows(std::move(offsets), std::move(targets));
}

inline graph::NeighborView view_of(const graph::DynamicGraph& g) {
  return graph::NeighborView(csr_of(g));
}

}  // namespace sybil::graphtest
