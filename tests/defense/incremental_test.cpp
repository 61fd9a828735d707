// Property suite for the service's rolling defenses (docs/DEFENSES.md):
//
//   * the DefenseScorer's SybilRank vs the batch sybilrank_scores()
//     kernel and an independent per-edge reference, across 6 graph
//     regimes × 3 edge-arrival orders × SYBIL_THREADS 1 and 8 —
//     BIT-exact at every refresh (the scorer recomputes over a CSR of
//     its rows with the batch kernel itself);
//   * a refresh after every single edge, and the auto iteration depth
//     following the node count across a power of two;
//   * a refresh over an unchanged graph skips the recompute, exactly;
//   * rank on read: a refresh only snapshots the rows, so scores read
//     after more edges and nodes arrived are still the batch kernel's
//     over the graph at the refresh, unread refreshes run no pull, and
//     pulls never outnumber the refreshes that saw a change;
//   * the scorer's drain-time clustering_score() vs
//     local_clustering_all(), bit-exact for every node (integer link
//     counts, same expression), and on hand-computed cases;
//   * serialize()/restore() round-trips byte-exactly, the restored
//     rows give the batch clustering, and the restored scorer continues
//     identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/detector_options.h"
#include "core/parallel.h"
#include "detectors/sybilrank.h"
#include "graph/clustering.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "osn/events.h"
#include "service/defense_scorer.h"
#include "stats/rng.h"

namespace sybil::detect {
namespace {

using graph::NodeId;
using graph::TimestampedGraph;
using service::DefenseScorer;

struct Arrival {
  NodeId u, v;
  graph::Time t;
};

/// Distinct edges of g with their creation timestamps, in per-row
/// discovery order (≈ the generator's own arrival order).
std::vector<Arrival> edges_of(const TimestampedGraph& g) {
  std::vector<Arrival> out;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const graph::Neighbor& nb : g.neighbors(u)) {
      if (u < nb.node) out.push_back({u, nb.node, nb.created_at});
    }
  }
  return out;
}

/// The 6 regimes the acceptance gate names: sparse/dense ER, heavy-
/// tailed BA, small-world WS, the OSN-like generator, and OSN-like
/// with an injected Sybil community (the adversarial case).
std::vector<std::pair<std::string, TimestampedGraph>> regimes() {
  std::vector<std::pair<std::string, TimestampedGraph>> out;
  {
    stats::Rng rng(101);
    out.emplace_back("er_sparse", graph::erdos_renyi(300, 0.015, rng));
  }
  {
    stats::Rng rng(102);
    out.emplace_back("er_dense", graph::erdos_renyi(150, 0.12, rng));
  }
  {
    stats::Rng rng(103);
    out.emplace_back("ba", graph::barabasi_albert(300, 3, rng));
  }
  {
    stats::Rng rng(104);
    out.emplace_back("ws", graph::watts_strogatz(300, 6, 0.1, rng));
  }
  graph::OsnGraphParams p;
  p.nodes = 250;
  p.mean_links = 8.0;
  {
    stats::Rng rng(105);
    out.emplace_back("osn", graph::osn_like_graph(p, rng));
  }
  {
    stats::Rng rng(106);
    const TimestampedGraph honest = graph::osn_like_graph(p, rng);
    out.emplace_back("osn_sybil", graph::inject_sybil_community(
                                      honest, 40, 0.3, 25, rng));
  }
  return out;
}

const std::vector<NodeId> kSeeds = {0, 3, 7, 11, 19};

core::DetectorOptions scorer_options(std::vector<NodeId> seeds = kSeeds) {
  core::DetectorOptions opts;
  opts.defense.enabled = true;
  opts.defense.seeds = std::move(seeds);
  return opts;
}

void observe(DefenseScorer& scorer, const Arrival& e) {
  scorer.observe({osn::EventType::kRequestAccepted, e.u, e.v, e.t});
}

enum class Order { kChronological, kReversed, kShuffled };

std::vector<Arrival> reorder(std::vector<Arrival> edges, Order order,
                             std::uint64_t seed) {
  switch (order) {
    case Order::kChronological:
      break;
    case Order::kReversed:
      std::reverse(edges.begin(), edges.end());
      break;
    case Order::kShuffled:
      std::shuffle(edges.begin(), edges.end(), std::mt19937_64(seed));
      break;
  }
  return edges;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " node " << i;
  }
}

/// clustering_score(u) for every node the scorer's graph holds.
std::vector<double> clustering_of(const DefenseScorer& scorer) {
  std::vector<double> out(scorer.graph().node_count());
  for (NodeId u = 0; u < out.size(); ++u) out[u] = scorer.clustering_score(u);
  return out;
}

/// The scorer's clustering must equal the batch kernel over its rows.
void expect_batch_clustering(const DefenseScorer& scorer,
                             const std::string& what) {
  expect_bitwise_equal(
      clustering_of(scorer),
      graph::local_clustering_all(graph::CsrGraph::from(scorer.graph())),
      what);
}

/// SybilRank written out independently of the shared kernel, in the
/// per-edge form the batch path had before the kernel weighted each
/// node once: tᵢ[v] = Σ tᵢ₋₁[u] · (1/deg u) over v's chronological row.
/// The products are the same IEEE values either way, so it must agree
/// bit for bit.
std::vector<double> reference_rank(const TimestampedGraph& g) {
  const NodeId n = g.node_count();
  const auto iters = static_cast<std::size_t>(
      std::ceil(std::log2(std::max<double>(2.0, static_cast<double>(n)))));
  std::vector<double> trust(n, 0.0), next(n), inv_degree(n, 0.0);
  for (const NodeId s : kSeeds) trust[s] += 1.0 / kSeeds.size();
  for (NodeId u = 0; u < n; ++u) {
    if (g.degree(u) > 0) inv_degree[u] = 1.0 / g.degree(u);
  }
  for (std::size_t it = 0; it < iters; ++it) {
    for (NodeId v = 0; v < n; ++v) {
      double sum = 0.0;
      for (const graph::Neighbor& nb : g.neighbors(v)) {
        sum += trust[nb.node] * inv_degree[nb.node];
      }
      next[v] = sum;
    }
    trust.swap(next);
  }
  for (NodeId u = 0; u < n; ++u) {
    if (g.degree(u) > 0) trust[u] /= g.degree(u);
  }
  return trust;
}

/// Refreshes `scorer` (the service's sweep) and pins its rank column,
/// bit for bit, to the batch kernel over the same graph and to the
/// independent per-edge reference.
void refresh_and_expect_batch(DefenseScorer& scorer, const std::string& what) {
  scorer.refresh();
  expect_bitwise_equal(
      scorer.rank_scores(),
      sybilrank_scores(graph::CsrGraph::from(scorer.graph()), kSeeds), what);
  expect_bitwise_equal(scorer.rank_scores(), reference_rank(scorer.graph()),
                       what + "/reference");
}

TEST(IncrementalRank, MatchesBatchAcrossRegimesOrdersAndThreads) {
  for (int threads : {1, 8}) {
    core::set_thread_count(threads);
    for (const auto& [name, base] : regimes()) {
      const std::vector<Arrival> chrono = edges_of(base);
      ASSERT_GT(chrono.size(), 100u) << name;
      for (Order order :
           {Order::kChronological, Order::kReversed, Order::kShuffled}) {
        const std::string what = name + "/order" +
                                 std::to_string(static_cast<int>(order)) +
                                 "/threads" + std::to_string(threads);
        // Streams the edges in batches of 32, refreshing after each —
        // the service's sweep cadence in miniature.
        DefenseScorer scorer(scorer_options());
        std::size_t in_batch = 0;
        for (const Arrival& e : reorder(chrono, order, 7)) {
          observe(scorer, e);
          if (++in_batch == 32) {
            in_batch = 0;
            refresh_and_expect_batch(scorer, what);
          }
        }
        refresh_and_expect_batch(scorer, what + "/final");

        // Clustering is derived when read and must be bit-exact —
        // integer link counts, same expression as batch.
        expect_batch_clustering(scorer, what + "/clustering");
      }
    }
  }
  core::set_thread_count(0);
}

// The tightest cadence: a refresh after every single edge. Each lands
// on the batch bytes, and each runs ceil(log2 V) rounds over the V the
// graph has at that moment.
TEST(IncrementalRank, ExactPropagationIsBitIdenticalWhileStreaming) {
  stats::Rng rng(205);
  const TimestampedGraph base = graph::erdos_renyi(200, 0.03, rng);
  DefenseScorer scorer(scorer_options());
  std::uint64_t rounds = 0;
  for (const Arrival& e : edges_of(base)) {
    observe(scorer, e);
    refresh_and_expect_batch(scorer, "edge " + std::to_string(e.u) + "-" +
                                         std::to_string(e.v));
    const double v = scorer.graph().node_count();
    rounds += static_cast<std::uint64_t>(std::ceil(std::log2(v)));
  }
  EXPECT_EQ(scorer.rank().full_recomputes(), scorer.refreshes());
  EXPECT_EQ(scorer.rank().rounds_total(), rounds);
}

TEST(IncrementalRank, AutoIterationDepthGrowthForcesRecompute) {
  DefenseScorer scorer(scorer_options());
  stats::Rng rng(211);
  for (int i = 0; i < 300; ++i) {
    observe(scorer, {static_cast<NodeId>(rng.uniform_index(120)),
                     static_cast<NodeId>(rng.uniform_index(120)),
                     static_cast<double>(i)});
  }
  observe(scorer, {0, 119, 300.0});  // n = 120: ceil(log2 120) = 7
  refresh_and_expect_batch(scorer, "pre-growth");
  ASSERT_EQ(scorer.graph().node_count(), 120u);
  ASSERT_EQ(scorer.rank().rounds_total(), 7u);

  observe(scorer, {0, 200, 1000.0});  // n = 201: ceil(log2 201) = 8
  refresh_and_expect_batch(scorer, "post-growth");
  EXPECT_EQ(scorer.rank().full_recomputes(), 2u);
  EXPECT_EQ(scorer.rank().rounds_total(), 7u + 8u);
}

// Skipping is exact: with no new edge and no new node the graph is the
// one the scores came from. A rejected edge changes nothing either.
TEST(IncrementalRank, UnchangedGraphSkipsTheRecompute) {
  DefenseScorer scorer(scorer_options());
  observe(scorer, {0, 3, 1.0});
  observe(scorer, {3, 25, 2.0});
  refresh_and_expect_batch(scorer, "first");
  ASSERT_EQ(scorer.rank().full_recomputes(), 1u);
  const std::vector<double> before = scorer.rank_scores();

  observe(scorer, {3, 0, 3.0});   // duplicate
  observe(scorer, {7, 7, 4.0});   // self-loop
  refresh_and_expect_batch(scorer, "unchanged");
  EXPECT_EQ(scorer.refreshes(), 2u);
  EXPECT_EQ(scorer.rank().full_recomputes(), 1u) << "nothing changed";
  expect_bitwise_equal(scorer.rank_scores(), before, "kept");

  observe(scorer, {25, 26, 5.0});  // a new node and a new edge
  refresh_and_expect_batch(scorer, "grown");
  EXPECT_EQ(scorer.rank().full_recomputes(), 2u);
}

TEST(IncrementalRank, EmptySeedsYieldAllZeroWithoutThrowing) {
  DefenseScorer scorer(scorer_options({}));
  observe(scorer, {0, 1, 0.0});
  observe(scorer, {1, 7, 1.0});
  scorer.refresh();
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(scorer.rank_score(u), 0.0);
  EXPECT_EQ(scorer.rank().full_recomputes(), 0u) << "the rank tier is off";
}

// A refresh snapshots the graph; its scores are pulled when first read.
// Read late — after more edges and new nodes arrived — they are still
// the batch kernel's over the graph as it was at the refresh, which a
// second scorer fed only that prefix rebuilds.
TEST(RankOnRead, LateReadScoresTheGraphAtTheLastRefresh) {
  for (int threads : {1, 8}) {
    core::set_thread_count(threads);
    for (const auto& [name, base] : regimes()) {
      const std::string what = name + "/threads" + std::to_string(threads);
      const std::vector<Arrival> edges = edges_of(base);
      const std::size_t prefix = edges.size() / 2;
      DefenseScorer late(scorer_options());
      DefenseScorer at_refresh(scorer_options());
      for (std::size_t i = 0; i < prefix; ++i) {
        observe(late, edges[i]);
        observe(at_refresh, edges[i]);
      }
      late.refresh();
      const NodeId nodes_then = late.graph().node_count();
      for (std::size_t i = prefix; i < edges.size(); ++i) {
        observe(late, edges[i]);
      }
      const NodeId grown = late.graph().node_count() + 5;
      observe(late, {0, grown, 1e6});  // new nodes past the old range
      ASSERT_GT(late.graph().node_count(), nodes_then) << what;
      ASSERT_EQ(late.rank().full_recomputes(), 0u) << what;

      expect_bitwise_equal(
          late.rank_scores(),
          sybilrank_scores(graph::CsrGraph::from(at_refresh.graph()), kSeeds),
          what);
      expect_bitwise_equal(late.rank_scores(),
                           reference_rank(at_refresh.graph()),
                           what + "/reference");
      EXPECT_EQ(late.rank_score(grown), 0.0) << what << ": joined later";
      EXPECT_EQ(late.rank().full_recomputes(), 1u) << what;
    }
  }
  core::set_thread_count(0);
}

TEST(RankOnRead, UnreadRefreshesRunNoPull) {
  stats::Rng rng(221);
  const std::vector<Arrival> edges =
      edges_of(graph::erdos_renyi(200, 0.03, rng));
  ASSERT_GT(edges.size(), 5u * 40u);
  DefenseScorer scorer(scorer_options());
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t i = 40 * r; i < 40 * (r + 1); ++i) {
      observe(scorer, edges[i]);
    }
    scorer.refresh();
  }
  EXPECT_EQ(scorer.refreshes(), 5u);
  EXPECT_EQ(scorer.rank().full_recomputes(), 0u) << "nothing was read";
  EXPECT_EQ(scorer.rank().rounds_total(), 0u);

  const std::vector<double> scores = scorer.rank_scores();
  EXPECT_EQ(scorer.rank().full_recomputes(), 1u);
  const double v = scorer.graph().node_count();
  EXPECT_EQ(scorer.rank().rounds_total(),
            static_cast<std::uint64_t>(std::ceil(std::log2(v))));
  // Further reads of the same snapshot reuse its scores.
  scorer.rank_score(0);
  scorer.serialize();
  EXPECT_EQ(scorer.rank().full_recomputes(), 1u);
  expect_bitwise_equal(scorer.rank_scores(), scores, "reread");
}

// A random interleaving of edges, refreshes and reads: a pull runs only
// for a changed refresh whose scores were read before the next changed
// refresh replaced its snapshot, so pulls never outnumber the refreshes
// that saw a change.
TEST(RankOnRead, PullsNeverExceedChangedRefreshes) {
  stats::Rng rng(223);
  DefenseScorer scorer(scorer_options());
  std::uint64_t changed_refreshes = 0, read_snapshots = 0;
  std::uint64_t edges_then = 0;
  NodeId nodes_then = 0;
  bool pending = false;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.uniform_index(10);
    if (op < 6) {
      observe(scorer, {static_cast<NodeId>(rng.uniform_index(150)),
                       static_cast<NodeId>(rng.uniform_index(150)),
                       static_cast<double>(step)});
    } else if (op < 8) {
      const bool changed = scorer.graph().edge_count() != edges_then ||
                           scorer.graph().node_count() != nodes_then;
      scorer.refresh();
      edges_then = scorer.graph().edge_count();
      nodes_then = scorer.graph().node_count();
      if (changed) {
        ++changed_refreshes;
        pending = true;
      }
    } else {
      scorer.rank_score(static_cast<NodeId>(rng.uniform_index(150)));
      if (pending) ++read_snapshots;
      pending = false;
    }
    ASSERT_EQ(scorer.rank().full_recomputes(), read_snapshots) << step;
    ASSERT_LE(scorer.rank().full_recomputes(), changed_refreshes) << step;
  }
  EXPECT_GT(read_snapshots, 0u);
  EXPECT_LT(read_snapshots, changed_refreshes) << "some snapshots unread";
}

TEST(IncrementalClustering, HandComputedCases) {
  DefenseScorer scorer(scorer_options());
  // Triangle 0-1-2: every node has cc 1.
  observe(scorer, {0, 1, 0.0});
  observe(scorer, {1, 2, 0.0});
  observe(scorer, {0, 2, 0.0});
  EXPECT_EQ(scorer.clustering_score(0), 1.0);
  EXPECT_EQ(scorer.clustering_score(1), 1.0);
  EXPECT_EQ(scorer.clustering_score(2), 1.0);

  // Pendant 3 on node 0: cc(3) = 0 (degree 1), cc(0) drops to 1/3
  // (one closed pair of three).
  observe(scorer, {0, 3, 1.0});
  EXPECT_EQ(scorer.clustering_score(3), 0.0);
  EXPECT_DOUBLE_EQ(scorer.clustering_score(0), 1.0 / 3.0);

  // Close 3-1: 0 now has pairs {1,2},{1,3} closed of 3 → 2/3; 3 has
  // its single pair {0,1} closed → 1; 1 has {0,2},{0,3} of 3 → 2/3.
  observe(scorer, {3, 1, 2.0});
  EXPECT_DOUBLE_EQ(scorer.clustering_score(0), 2.0 / 3.0);
  EXPECT_EQ(scorer.clustering_score(3), 1.0);
  EXPECT_DOUBLE_EQ(scorer.clustering_score(1), 2.0 / 3.0);
  EXPECT_EQ(scorer.clustering_score(2), 1.0);
  EXPECT_EQ(scorer.clustering_score(99), 0.0) << "unknown node";

  expect_batch_clustering(scorer, "hand case");
}

TEST(IncrementalState, SerializeRestoreRoundTripsAndContinuesIdentically) {
  stats::Rng rng(301);
  const TimestampedGraph base = graph::erdos_renyi(180, 0.03, rng);
  const std::vector<Arrival> edges = edges_of(base);
  const std::size_t half = edges.size() / 2;

  // Stop mid-interval, so the blob carries scores from a smaller graph
  // than the one it holds.
  DefenseScorer a(scorer_options());
  for (std::size_t i = 0; i < half; ++i) {
    observe(a, edges[i]);
    if (i % 24 == 23) a.refresh();
  }
  ASSERT_NE(half % 24, 0u) << "edges arrived since the last refresh";
  const std::vector<std::byte> bytes = a.serialize();

  DefenseScorer b(scorer_options());
  b.restore(bytes);
  expect_bitwise_equal(b.rank_scores(), a.rank_scores(), "restored rank");
  expect_batch_clustering(b, "restored clustering");
  expect_bitwise_equal(clustering_of(b), clustering_of(a),
                       "restored clustering vs the original");
  EXPECT_EQ(b.rank().full_recomputes(), a.rank().full_recomputes());
  EXPECT_EQ(b.rank().rounds_total(), a.rank().rounds_total());

  // Re-serializing the restored state reproduces the bytes exactly.
  EXPECT_EQ(b.serialize(), bytes);

  // Both copies stream the second half and stay bit-identical.
  for (std::size_t i = half; i < edges.size(); ++i) {
    observe(a, edges[i]);
    observe(b, edges[i]);
    if ((i - half) % 24 == 23) {
      a.refresh();
      b.refresh();
    }
  }
  a.refresh();
  b.refresh();
  expect_bitwise_equal(b.rank_scores(), a.rank_scores(), "continued rank");
  expect_batch_clustering(b, "continued clustering");
  EXPECT_EQ(b.serialize(), a.serialize());
}

}  // namespace
}  // namespace sybil::detect
