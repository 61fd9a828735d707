#include "graph/neighbor_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/parallel.h"
#include "graph/clustering.h"
#include "graph/generators.h"
#include "stats/rng.h"

namespace sybil::graph {
namespace {

/// The graph regimes the galloping intersection has to agree with the
/// scalar path on: empty rows, sparse ER (two-pointer path), dense ER
/// (every pair adjacent somewhere), heavy-tailed BA (size-skewed rows
/// that trigger galloping), clustered WS, and an OSN-like graph with a
/// planted sybil region (the workload the paper's feature runs on).
std::vector<TimestampedGraph> regimes() {
  std::vector<TimestampedGraph> out;
  out.emplace_back(0);   // empty graph
  out.emplace_back(7);   // isolated nodes, no edges
  {
    TimestampedGraph star(20);
    for (NodeId v = 1; v < 20; ++v) star.add_edge(0, v, double(v));
    out.push_back(std::move(star));
  }
  {
    stats::Rng rng(11);
    out.push_back(erdos_renyi(120, 0.02, rng));
  }
  {
    stats::Rng rng(12);
    out.push_back(erdos_renyi(60, 0.5, rng));
  }
  {
    stats::Rng rng(13);
    out.push_back(barabasi_albert(200, 3, rng));
  }
  {
    stats::Rng rng(14);
    out.push_back(watts_strogatz(150, 6, 0.1, rng));
  }
  {
    stats::Rng rng(15);
    const TimestampedGraph honest = osn_like_graph({.nodes = 150}, rng);
    out.push_back(inject_sybil_community(honest, 30, 0.4, 12, rng));
  }
  return out;
}

const std::size_t kKValues[] = {2, 5, 50, 1000};

TEST(NeighborView, SortedRowsArePermutedChronologicalRows) {
  for (const TimestampedGraph& tg : regimes()) {
    const NeighborView view = NeighborView::from(tg);
    ASSERT_EQ(view.node_count(), tg.node_count());
    for (NodeId u = 0; u < view.node_count(); ++u) {
      const auto chrono = view.chronological(u);
      const auto sorted = view.sorted(u);
      ASSERT_EQ(chrono.size(), sorted.size());
      EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
      std::vector<NodeId> a(chrono.begin(), chrono.end());
      std::vector<NodeId> b(sorted.begin(), sorted.end());
      std::sort(a.begin(), a.end());
      EXPECT_EQ(a, b) << "node " << u;
      // The chronological row must match the underlying CSR row (the
      // sorted twin shares offsets, never reorders the original).
      const auto csr_row = view.csr().neighbors(u);
      EXPECT_TRUE(std::equal(chrono.begin(), chrono.end(), csr_row.begin(),
                             csr_row.end()));
    }
  }
}

TEST(NeighborView, FirstKIsChronologicalPrefixAndHasEdgeAgrees) {
  for (const TimestampedGraph& tg : regimes()) {
    const NeighborView view = NeighborView::from(tg);
    for (NodeId u = 0; u < view.node_count(); ++u) {
      const auto chrono = view.chronological(u);
      for (std::size_t k : kKValues) {
        const auto prefix = view.first_k(u, k);
        ASSERT_EQ(prefix.size(), std::min(k, chrono.size()));
        EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), chrono.begin()));
      }
      for (NodeId f : chrono) {
        EXPECT_TRUE(view.has_edge(u, f));
      }
    }
    // Out-of-range and absent lookups are well-defined.
    EXPECT_FALSE(view.has_edge(view.node_count() + 5, 0));
    if (view.node_count() >= 2) {
      const NodeId u = 0;
      for (NodeId v = 0; v < view.node_count(); ++v) {
        const auto sorted = view.sorted(u);
        const bool present =
            std::binary_search(sorted.begin(), sorted.end(), v);
        EXPECT_EQ(view.has_edge(u, v), present);
      }
    }
  }
}

/// Independent scalar oracle for first-k clustering: the prefix read
/// from the chronological rows, links counted by hashing the prefix and
/// scanning each member's full CSR row.
double reference_first_k(const TimestampedGraph& tg, const CsrGraph& csr,
                         NodeId u, std::size_t k) {
  std::vector<NodeId> first;
  for (const Neighbor& n : tg.neighbors(u)) {
    if (first.size() >= k) break;
    first.push_back(n.node);
  }
  const std::size_t d = first.size();
  if (d < 2) return 0.0;
  const std::unordered_set<NodeId> member(first.begin(), first.end());
  std::uint64_t twice_edges = 0;
  for (NodeId f : first) {
    for (NodeId v : csr.neighbors(f)) {
      if (v != f && member.contains(v)) ++twice_edges;
    }
  }
  return 2.0 * static_cast<double>(twice_edges / 2) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

/// The headline property: the galloping view-based kernel (scalar and
/// batched, at 1 and 8 threads) returns the *bit-identical* double the
/// scalar oracle returns — both count links as exact integers, so
/// there is no tolerance here, only ==.
TEST(NeighborView, BatchedClusteringBitIdenticalToScalarPath) {
  for (const TimestampedGraph& tg : regimes()) {
    const CsrGraph csr = CsrGraph::from(tg);
    const NeighborView view = NeighborView::from(tg);
    std::vector<NodeId> subjects(view.node_count());
    for (NodeId u = 0; u < view.node_count(); ++u) subjects[u] = u;

    for (std::size_t k : kKValues) {
      std::vector<double> reference(subjects.size());
      for (std::size_t i = 0; i < subjects.size(); ++i) {
        reference[i] = reference_first_k(tg, csr, subjects[i], k);
      }
      // Scalar view path (with and without caller scratch).
      ClusteringScratch scratch;
      for (std::size_t i = 0; i < subjects.size(); ++i) {
        const double plain = first_k_clustering(view, subjects[i], k);
        const double scratched =
            first_k_clustering(view, subjects[i], k, scratch);
        EXPECT_EQ(plain, reference[i]) << "k=" << k << " u=" << subjects[i];
        EXPECT_EQ(scratched, reference[i]);
      }
      // Batch path at 1 and 8 worker threads.
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        core::set_thread_count(threads);
        const std::vector<double> batch =
            first_k_clustering_batch(view, subjects, k);
        core::set_thread_count(0);
        ASSERT_EQ(batch.size(), reference.size());
        for (std::size_t i = 0; i < subjects.size(); ++i) {
          EXPECT_EQ(batch[i], reference[i])
              << "k=" << k << " u=" << subjects[i] << " threads=" << threads;
        }
      }
    }
  }
}

TEST(NeighborView, BatchHandlesUnknownAndDuplicateSubjects) {
  stats::Rng rng(21);
  const TimestampedGraph tg = barabasi_albert(50, 2, rng);
  const NeighborView view = NeighborView::from(tg);
  // Subjects past node_count (streaming sweeps evaluate accounts the
  // snapshot has not seen yet) and repeated subjects must behave like
  // independent scalar calls.
  const std::vector<NodeId> subjects = {0, 49, 50, 1000, 3, 3, 0};
  const std::vector<double> batch = first_k_clustering_batch(view, subjects);
  ASSERT_EQ(batch.size(), subjects.size());
  for (std::size_t i = 0; i < subjects.size(); ++i) {
    EXPECT_EQ(batch[i], first_k_clustering(view, subjects[i]));
  }
  EXPECT_EQ(batch[2], 0.0);
  EXPECT_EQ(batch[3], 0.0);
}

}  // namespace
}  // namespace sybil::graph
