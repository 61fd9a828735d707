// Rolling structure-based defense scores for one service shard.
//
// The registry defenses (detectors/defense.h) are batch algorithms over
// a static graph. DefenseScorer is their live-service counterpart — the
// `service.defense.*` sweep tier (docs/DEFENSES.md): the supervisor
// feeds it every *pumped* event, it grows a graph::TimestampedGraph
// from the edge-bearing kinds (accepted requests, seeded friendships),
// and derives two defenses from it:
//
//   SybilRank    recomputed in full by refresh() at each flag sweep that
//                follows a graph change: graph::compact_rows() writes
//                the rows into reused CSR buffers and
//                detect::sybilrank_pull(), the batch kernel itself,
//                runs over them, so the scores equal sybilrank_scores()
//                on the same graph bit for bit
//   clustering   computed from u's rows when clustering_score(u) is
//                read, with the batch kernel's expression over the same
//                exact link count, so it equals local_clustering_all()
//
// Its state is the graph, the last recompute's scores and the edge
// count at the last refresh; nothing else is kept per edge.
//
// Scores are a *second signal*: take_flagged() annotates the threshold
// detector's FlagRecords with them (defense_rank / defense_clustering
// columns), never changing who is flagged — so every byte-identical
// contract of the defense-off service survives unchanged.
//
// Determinism: the scorer sees exactly the pumped event sequence, which
// WAL replay reproduces exactly; duplicate edges and out-of-bound ids
// are skipped deterministically; the rank kernel is bit-stable for any
// thread count (inside a shard lane its parallel_for runs inline) and
// clustering is single-threaded. Checkpoints carry the graph and the
// last refresh's scores (serialize()/restore()), so a recovered shard
// scores byte-identically to one that never crashed.
// Caveat: enabling `defense` on a service whose WAL was already pruned
// would lose the pre-checkpoint edges, so the supervisor refuses to
// start there — enable the tier from the service's birth.
#pragma once

#include <cstdint>
#include <vector>

#include "core/detector_options.h"
#include "detectors/sybilrank.h"
#include "graph/graph.h"
#include "io/container.h"
#include "osn/events.h"

namespace sybil::service {

class DefenseScorer {
 public:
  explicit DefenseScorer(const core::DetectorOptions& options);

  /// Folds one pumped event into the rolling graph. Non-edge kinds are
  /// ignored; self-loops, duplicates and ids beyond
  /// ingest.max_account_id are counted as `ignored` and skipped.
  void observe(const osn::Event& e);

  /// Refresh counters of the rank tier (stats_json's rank_* fields).
  class RankCounters {
   public:
    /// Refreshes that recomputed the scores.
    std::uint64_t full_recomputes() const noexcept { return full_recomputes_; }
    /// Pull rounds across those recomputes.
    std::uint64_t rounds_total() const noexcept { return rounds_total_; }

   private:
    friend class DefenseScorer;
    std::uint64_t full_recomputes_ = 0;
    std::uint64_t rounds_total_ = 0;
  };

  /// Sweep-tier refresh: recomputes the rank scores over the whole
  /// graph. Skipped, exactly, when no edge and no node joined since the
  /// last refresh (edges are only ever added, so an equal edge count is
  /// an equal graph). Clustering needs no refresh — it is derived when
  /// read.
  void refresh();

  /// Degree-normalized SybilRank trust (0.0 before the first refresh,
  /// for unknown nodes, and when no seeds are configured).
  double rank_score(graph::NodeId u) const {
    return u < rank_scores_.size() ? rank_scores_[u] : 0.0;
  }
  /// The scores of the last recompute, one per node the graph had then.
  const std::vector<double>& rank_scores() const noexcept {
    return rank_scores_;
  }

  /// Local clustering coefficient of u over the current graph (0.0 for
  /// unknown nodes), computed from the rows on each call: O(sum of u's
  /// neighbours' degrees · log deg u), allocating O(deg u).
  double clustering_score(graph::NodeId u) const;

  const graph::TimestampedGraph& graph() const noexcept { return graph_; }
  const RankCounters& rank() const noexcept { return rank_; }

  // Replay-exact counters (reported in stats_json's "defense" object).
  std::uint64_t edges_observed() const noexcept { return edges_observed_; }
  std::uint64_t ignored() const noexcept { return ignored_; }
  std::uint64_t refreshes() const noexcept { return refreshes_; }

  /// Byte-exact state blob for the service checkpoint's defense
  /// section; restore() rebuilds an identical scorer.
  std::vector<std::byte> serialize() const;
  void restore(const std::vector<std::byte>& bytes);

 private:
  std::uint32_t max_account_id_;
  std::vector<graph::NodeId> seeds_;
  graph::TimestampedGraph graph_;
  // The rank tier: CSR and kernel buffers kept across refreshes, the
  // scores of the last recompute and the edge count at the last refresh.
  std::vector<std::uint64_t> offsets_;
  std::vector<graph::NodeId> targets_;
  detect::SybilRankWorkspace workspace_;
  std::vector<double> rank_scores_;
  std::uint64_t ranked_edges_ = 0;
  RankCounters rank_;
  std::uint64_t edges_observed_ = 0;
  std::uint64_t ignored_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace sybil::service
