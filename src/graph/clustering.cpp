#include "graph/clustering.h"

#include <algorithm>
#include <unordered_set>

#include "core/parallel.h"

namespace sybil::graph {

namespace {

/// Counts edges among the given candidate set using a hash set of the
/// candidates and scanning each candidate's adjacency once — the kernel
/// of full-neighborhood clustering (whose rows have no sorted twin).
std::uint64_t edges_within(const CsrGraph& g, std::span<const NodeId> nodes) {
  std::unordered_set<NodeId> member(nodes.begin(), nodes.end());
  std::uint64_t twice_edges = 0;
  for (NodeId u : nodes) {
    for (NodeId v : g.neighbors(u)) {
      if (v != u && member.contains(v)) ++twice_edges;
    }
  }
  return twice_edges / 2;
}

/// Branchless lower bound: the compiler turns the half-select into a
/// conditional move, so the search pipeline never mispredicts on the
/// (random) comparison outcomes.
const NodeId* branchless_lower_bound(const NodeId* first, std::size_t n,
                                     NodeId x) noexcept {
  while (n > 1) {
    const std::size_t half = n / 2;
    first = first[half - 1] < x ? first + half : first;
    n -= half;
  }
  return (n == 1 && *first < x) ? first + 1 : first;
}

/// |a ∩ b| for two ascending id lists. When one side is much longer,
/// gallops through it (exponential probe + branchless binary search,
/// advancing the base past each hit so total work is
/// O(small · log(large/small))); otherwise a two-pointer merge.
std::uint64_t intersect_count(std::span<const NodeId> a,
                              std::span<const NodeId> b) noexcept {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty() || b.empty()) return 0;
  std::uint64_t hits = 0;
  if (b.size() / (a.size() + 1) >= 8) {
    const NodeId* base = b.data();
    const NodeId* const end = b.data() + b.size();
    for (NodeId x : a) {
      // Exponential probe from the current base, then binary search
      // inside the bracketing window.
      std::size_t bound = 1;
      const auto remaining = static_cast<std::size_t>(end - base);
      if (remaining == 0) break;
      while (bound < remaining && base[bound - 1] < x) bound <<= 1;
      const std::size_t lo = bound >> 1;
      const std::size_t hi = bound < remaining ? bound : remaining;
      const NodeId* pos = branchless_lower_bound(base + lo, hi - lo, x);
      hits += (pos != end && *pos == x) ? 1 : 0;
      base = pos;
    }
    return hits;
  }
  const NodeId* pa = a.data();
  const NodeId* pb = b.data();
  const NodeId* const ea = pa + a.size();
  const NodeId* const eb = pb + b.size();
  while (pa != ea && pb != eb) {
    const NodeId va = *pa;
    const NodeId vb = *pb;
    hits += va == vb ? 1 : 0;
    pa += va <= vb ? 1 : 0;
    pb += vb <= va ? 1 : 0;
  }
  return hits;
}

/// The first-k kernel: sorted-subset self-intersection against each
/// member's sorted adjacency. Every subset edge (f, g) is counted once
/// from each endpoint, hence the /2 — an exact integer, so the final
/// double is bit-identical to the hash-set reference kernel.
double first_k_kernel(const NeighborView& view, NodeId u, std::size_t k,
                      ClusteringScratch& scratch) {
  if (u >= view.node_count()) return 0.0;
  const auto prefix = view.first_k(u, k);
  const std::size_t d = prefix.size();
  if (d < 2) return 0.0;
  scratch.subset.assign(prefix.begin(), prefix.end());
  std::sort(scratch.subset.begin(), scratch.subset.end());
  std::uint64_t twice_edges = 0;
  for (NodeId f : scratch.subset) {
    twice_edges += intersect_count(view.sorted(f), scratch.subset);
  }
  const std::uint64_t links = twice_edges / 2;
  return 2.0 * static_cast<double>(links) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

}  // namespace

double local_clustering(const CsrGraph& g, NodeId u) {
  const auto nbrs = g.neighbors(u);
  const std::size_t d = nbrs.size();
  if (d < 2) return 0.0;
  const std::uint64_t links = edges_within(g, nbrs);
  return 2.0 * static_cast<double>(links) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

double first_k_clustering(const NeighborView& view, NodeId u, std::size_t k) {
  ClusteringScratch scratch;
  return first_k_kernel(view, u, k, scratch);
}

double first_k_clustering(const NeighborView& view, NodeId u, std::size_t k,
                          ClusteringScratch& scratch) {
  return first_k_kernel(view, u, k, scratch);
}

void first_k_clustering_batch(const NeighborView& view,
                              std::span<const NodeId> subjects, std::size_t k,
                              std::span<double> out) {
  core::parallel_for(subjects.size(), [&](const core::ChunkRange& c) {
    // One scratch arena per chunk: the subset buffer allocates once and
    // is recycled across every candidate the chunk evaluates.
    ClusteringScratch scratch;
    scratch.subset.reserve(k);
    for (std::size_t i = c.begin; i < c.end; ++i) {
      out[i] = first_k_kernel(view, subjects[i], k, scratch);
    }
  });
}

std::vector<double> first_k_clustering_batch(const NeighborView& view,
                                             std::span<const NodeId> subjects,
                                             std::size_t k) {
  std::vector<double> out(subjects.size(), 0.0);
  first_k_clustering_batch(view, subjects, k, out);
  return out;
}

std::vector<double> local_clustering_all(const CsrGraph& g) {
  std::vector<double> cc(g.node_count(), 0.0);
  core::parallel_for(g.node_count(), [&](const core::ChunkRange& c) {
    for (std::size_t u = c.begin; u < c.end; ++u) {
      cc[u] = local_clustering(g, static_cast<NodeId>(u));
    }
  });
  return cc;
}

double average_clustering(const CsrGraph& g) {
  struct Partial {
    double total = 0.0;
    std::uint64_t counted = 0;
  };
  const Partial sum = core::parallel_reduce(
      g.node_count(), Partial{},
      [&](const core::ChunkRange& c) {
        Partial p;
        for (std::size_t u = c.begin; u < c.end; ++u) {
          if (g.degree(static_cast<NodeId>(u)) < 2) continue;
          p.total += local_clustering(g, static_cast<NodeId>(u));
          ++p.counted;
        }
        return p;
      },
      [](Partial acc, const Partial& p) {
        acc.total += p.total;
        acc.counted += p.counted;
        return acc;
      });
  return sum.counted == 0
             ? 0.0
             : sum.total / static_cast<double>(sum.counted);
}

std::uint64_t triangle_count(const CsrGraph& g) {
  // Forward algorithm: orient edges from lower-degree to higher-degree
  // (ties by id), intersect sorted forward-neighbor lists.
  const NodeId n = g.node_count();
  const auto precedes = [&g](NodeId a, NodeId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) < g.degree(b) : a < b;
  };
  std::vector<std::vector<NodeId>> fwd(n);
  core::parallel_for(n, [&](const core::ChunkRange& c) {
    for (std::size_t u = c.begin; u < c.end; ++u) {
      for (NodeId v : g.neighbors(static_cast<NodeId>(u))) {
        if (precedes(static_cast<NodeId>(u), v)) fwd[u].push_back(v);
      }
      std::sort(fwd[u].begin(), fwd[u].end());
    }
  });
  return core::parallel_reduce(
      n, std::uint64_t{0},
      [&](const core::ChunkRange& c) {
        std::uint64_t triangles = 0;
        for (std::size_t u = c.begin; u < c.end; ++u) {
          for (NodeId v : fwd[u]) {
            triangles += intersect_count(fwd[u], fwd[v]);
          }
        }
        return triangles;
      },
      [](std::uint64_t acc, std::uint64_t t) { return acc + t; });
}

double transitivity(const CsrGraph& g) {
  std::uint64_t wedges = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const std::uint64_t d = g.degree(u);
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(triangle_count(g)) /
         static_cast<double>(wedges);
}

}  // namespace sybil::graph
