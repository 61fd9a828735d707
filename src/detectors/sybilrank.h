// SybilRank (Cao et al., NSDI 2012) — early-terminated trust propagation.
//
// Extension baseline beyond the paper's four: the detector that became
// the canonical "community assumption" ranker after this paper was
// published. Trust is seeded at verified honest nodes and spread by
// O(log n) power iterations (early termination keeps trust from fully
// mixing into a Sybil region); nodes are ranked by degree-normalized
// trust, low rank → Sybil.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "detectors/defense.h"
#include "graph/csr.h"

namespace sybil::detect {

struct SybilRankParams {
  /// Power iterations; 0 → ceil(log2(n)).
  std::size_t iterations = 0;
};

/// Returns degree-normalized trust per node (higher = more honest).
std::vector<double> sybilrank_scores(const graph::CsrGraph& g,
                                     const std::vector<graph::NodeId>& seeds,
                                     SybilRankParams params = {});

/// Scratch arrays of sybilrank_pull(). A caller that re-ranks a growing
/// graph keeps one and stops allocating once the graph stops growing.
struct SybilRankWorkspace {
  std::vector<double> inv_degree;
  std::vector<double> next;
};

/// The kernel behind sybilrank_scores(), over raw CSR arrays: row v is
/// targets[offsets[v], offsets[v+1]) and is summed in that order. Runs
/// `iterations` pull rounds (0 → ceil(log2(max(2, n)))) over two layers
/// and leaves the degree-normalized trust in `trust`. Each round sums
/// w[t] = trust[t] · inv_degree[t], formed once per node, along every
/// row, so the values are bit-identical for any thread count and for
/// any caller holding the same rows. Empty seeds give all-zero trust.
/// Returns the rounds run.
std::size_t sybilrank_pull(std::span<const std::uint64_t> offsets,
                           std::span<const graph::NodeId> targets,
                           std::span<const graph::NodeId> seeds,
                           std::size_t iterations, std::vector<double>& trust,
                           SybilRankWorkspace& ws);

/// SybilRank behind the unified interface. Power iteration is pull-
/// based and parallel; no RNG at all.
class SybilRankDefense final : public SybilDefense {
 public:
  explicit SybilRankDefense(SybilRankParams params = {}) : params_(params) {}

  std::string_view name() const noexcept override { return "sybilrank"; }
  Determinism determinism() const noexcept override {
    return Determinism::kPure;
  }
  std::vector<double> score(const graph::CsrGraph& g,
                            const DefenseContext& ctx) const override {
    return sybilrank_scores(g, ctx.honest_seeds, params_);
  }

 private:
  SybilRankParams params_;
};

}  // namespace sybil::detect
