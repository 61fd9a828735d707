#include "detectors/sybilrank.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.h"

namespace sybil::detect {

std::size_t sybilrank_pull(std::span<const std::uint64_t> offsets,
                           std::span<const graph::NodeId> targets,
                           std::span<const graph::NodeId> seeds,
                           std::size_t iterations, std::vector<double>& trust,
                           SybilRankWorkspace& ws) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  if (iterations == 0) {
    iterations = static_cast<std::size_t>(
        std::ceil(std::log2(std::max<double>(2.0, static_cast<double>(n)))));
  }
  trust.assign(n, 0.0);
  if (!seeds.empty()) {
    const double share = 1.0 / static_cast<double>(seeds.size());
    for (const graph::NodeId s : seeds) {
      if (s < n) trust[s] += share;
    }
  }
  ws.inv_degree.assign(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t d = offsets[u + 1] - offsets[u];
    if (d > 0) ws.inv_degree[u] = 1.0 / static_cast<double>(d);
  }
  ws.next.resize(n);

  // Pull, not scatter: chunks write disjoint slots and each row is
  // summed in a fixed order, so the result is bit-stable for any thread
  // count. Rounds read the weighted layer w[u] = t[u] · inv_degree[u]:
  // each round weights its own sums for the next, so the product is
  // formed once per node rather than once per edge. The last round's
  // sums are the trust itself.
  for (std::size_t u = 0; u < n; ++u) trust[u] *= ws.inv_degree[u];
  for (std::size_t it = 0; it < iterations; ++it) {
    const bool last = it + 1 == iterations;
    core::parallel_for(n, [&](const core::ChunkRange& c) {
      for (std::size_t v = c.begin; v < c.end; ++v) {
        double sum = 0.0;
        for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
          sum += trust[targets[i]];
        }
        ws.next[v] = last ? sum : sum * ws.inv_degree[v];
      }
    });
    trust.swap(ws.next);
  }
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t d = offsets[u + 1] - offsets[u];
    if (d > 0) trust[u] /= static_cast<double>(d);
  }
  return iterations;
}

std::vector<double> sybilrank_scores(const graph::CsrGraph& g,
                                     const std::vector<graph::NodeId>& seeds,
                                     SybilRankParams params) {
  if (seeds.empty()) throw std::invalid_argument("sybilrank: no seeds");
  std::vector<double> trust;
  SybilRankWorkspace ws;
  sybilrank_pull(g.offsets(), g.targets(), seeds, params.iterations, trust, ws);
  return trust;
}

}  // namespace sybil::detect
