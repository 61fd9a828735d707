// Temporal analysis of Sybil edge creation order (Section 3.4, Fig 8).
//
// For each Sybil we build its chronological friend sequence and mark
// which positions are Sybil edges. If attackers created Sybil edges
// intentionally, those positions would cluster at the start of the
// sequence (fleet wired before targeting begins) — a "vertical line" in
// Fig 8. Accidental edges land uniformly at random. Both the per-Sybil
// flag rows (the figure) and summary statistics (uniformity of
// positions, intentional-run detection) are provided.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "osn/network.h"

namespace sybil::core {

/// One Sybil's chronological edge sequence: flags[i] is true when the
/// i-th friend (by edge creation time) is another Sybil.
struct EdgeOrderRow {
  osn::NodeId sybil = 0;
  std::vector<bool> flags;

  std::size_t degree() const noexcept { return flags.size(); }
  std::size_t sybil_edge_count() const;
  /// Longest run of consecutive Sybil-edge positions.
  std::size_t longest_sybil_run() const;
  /// Leading run of Sybil edges (fleet-wiring signature).
  std::size_t leading_sybil_run() const;
  /// Mean normalized position (0..1) of Sybil edges; ≈0.5 when placed
  /// uniformly at random. Returns -1 when there are no Sybil edges.
  double mean_sybil_position() const;
};

/// Builds rows for the given Sybils. Each neighbor list is sorted by
/// creation time. `sybil_mask` must cover all node ids of the graph.
std::vector<EdgeOrderRow> edge_order_rows(
    const graph::TimestampedGraph& g, std::span<const osn::NodeId> sybils,
    const std::vector<bool>& sybil_mask);

inline std::vector<EdgeOrderRow> edge_order_rows(
    const osn::Network& net, std::span<const osn::NodeId> sybils,
    const std::vector<bool>& sybil_mask) {
  return edge_order_rows(net.graph(), sybils, sybil_mask);
}

/// Summary over a set of rows.
struct EdgeOrderSummary {
  std::size_t rows = 0;
  std::size_t rows_with_sybil_edges = 0;
  /// Rows flagged as intentional: a leading run or any run of at least
  /// `run_threshold` Sybil edges.
  std::size_t intentional_rows = 0;
  /// Mean of mean_sybil_position over rows with Sybil edges.
  double mean_position = 0.0;
  /// One-sample Kolmogorov-Smirnov statistic of all normalized Sybil-
  /// edge positions against Uniform(0,1). Small (≲0.05 at this sample
  /// size) is consistent with accidental placement.
  double ks_statistic = 0.0;
};

EdgeOrderSummary summarize_edge_order(std::span<const EdgeOrderRow> rows,
                                      std::size_t run_threshold = 3);

}  // namespace sybil::core
