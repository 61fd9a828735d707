// Clustering coefficients.
//
// The paper's fourth detection feature (Fig 4) is the local clustering
// coefficient computed over a user's *first 50 friends sorted by time* —
// a deliberately streaming-friendly variant that only needs invitation
// data. Both that variant and the standard full-neighborhood coefficient
// are provided.
//
// The first-k variant runs over a NeighborView (one handle carrying the
// chronological and sorted orderings of the same snapshot): the first-k
// prefix is read straight out of the chronological row and mutual links
// are counted by sorted-adjacency intersection with galloping search,
// instead of hashing the subset and scanning full adjacency lists. The
// link count is an exact integer, so the result is bit-identical to a
// plain scalar count (asserted by the property tests).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/neighbor_view.h"

namespace sybil::graph {

/// Standard local clustering coefficient of u over its full neighborhood:
/// (# edges among neighbors) / (deg*(deg-1)/2). Zero for degree < 2.
double local_clustering(const CsrGraph& g, NodeId u);

/// Reusable per-call scratch for the first-k kernel: one sorted-subset
/// buffer, allocated once and recycled across every candidate of a
/// sweep (the batch entry point keeps one per chunk).
struct ClusteringScratch {
  std::vector<NodeId> subset;
};

/// The paper's metric: clustering coefficient of u's first `k` friends
/// in edge-creation order, over one NeighborView handle.
double first_k_clustering(const NeighborView& view, NodeId u,
                          std::size_t k = 50);

/// Same, with caller-owned scratch (no allocation after warm-up).
double first_k_clustering(const NeighborView& view, NodeId u, std::size_t k,
                          ClusteringScratch& scratch);

/// Batch form: coefficients for every subject, parallelized over the
/// fixed chunk partition with one scratch arena per chunk — the sorted
/// view built once per NeighborView is amortized across all candidates
/// of a sweep. out[i] corresponds to subjects[i]; bit-identical to
/// calling the scalar form per subject, for any SYBIL_THREADS.
void first_k_clustering_batch(const NeighborView& view,
                              std::span<const NodeId> subjects, std::size_t k,
                              std::span<double> out);
std::vector<double> first_k_clustering_batch(const NeighborView& view,
                                             std::span<const NodeId> subjects,
                                             std::size_t k = 50);

/// Local clustering coefficient of every node, computed in parallel
/// over the fixed chunk partition (deterministic for any SYBIL_THREADS).
std::vector<double> local_clustering_all(const CsrGraph& g);

/// Mean local clustering over all nodes of degree >= 2 (0 if none).
/// Parallelized; per-chunk partial sums are combined in chunk order so
/// the result is bit-stable across thread counts.
double average_clustering(const CsrGraph& g);

/// Global transitivity: 3 * triangles / wedges (0 if no wedges).
double transitivity(const CsrGraph& g);

/// Exact triangle count via node-ordered neighbor intersection.
std::uint64_t triangle_count(const CsrGraph& g);

}  // namespace sybil::graph
