// Rolling structure-based defense scores for one service shard.
//
// The registry defenses (detectors/defense.h) are batch algorithms over
// a static graph. DefenseScorer is their live-service counterpart — the
// `service.defense.*` sweep tier (docs/DEFENSES.md): the supervisor
// feeds it every *pumped* event, it grows a graph::TimestampedGraph
// from the edge-bearing kinds (accepted requests, seeded friendships),
// and derives two defenses from it:
//
//   SybilRank    snapshotted at each flag sweep that follows a graph
//                change: refresh() has graph::compact_rows() write the
//                rows into reused CSR buffers and marks the scores
//                stale. The first read after that (rank_score(),
//                rank_scores(), serialize()) runs
//                detect::sybilrank_pull(), the batch kernel itself,
//                over the snapshot, so the scores equal
//                sybilrank_scores() on the graph as it was at the last
//                refresh, bit for bit, however late they are read; a
//                sweep whose scores nobody reads costs one row copy
//   clustering   computed from u's rows when clustering_score(u) is
//                read, with the batch kernel's expression over the same
//                exact link count, so it equals local_clustering_all()
//
// Its state is the graph, the last pull's scores and the edge count at
// the last refresh; nothing else is kept per edge.
//
// Scores are a *second signal*: take_flagged() annotates the threshold
// detector's FlagRecords with them (defense_rank / defense_clustering
// columns), never changing who is flagged — so every byte-identical
// contract of the defense-off service survives unchanged.
//
// Determinism: the scorer sees exactly the pumped event sequence, which
// WAL replay reproduces exactly; duplicate edges and out-of-bound ids
// are skipped deterministically; the rank kernel is bit-stable for any
// thread count (a pull runs on the reader's thread: inline inside a
// shard lane, on the pool from take_flagged()) and clustering is
// single-threaded. The reads are const but may run the pending pull, so
// one scorer is not safe to read from two threads at once. Checkpoints
// carry the graph and the last refresh's scores (serialize()/restore()),
// so a recovered shard scores byte-identically to one that never
// crashed.
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
    /// Pulls run: one per refreshed graph whose scores were read.
    std::uint64_t full_recomputes() const noexcept { return full_recomputes_; }
    /// Pull rounds across those pulls.
    std::uint64_t rounds_total() const noexcept { return rounds_total_; }

   private:
    friend class DefenseScorer;
    std::uint64_t full_recomputes_ = 0;
    std::uint64_t rounds_total_ = 0;
  };

  /// Sweep-tier refresh: snapshots the graph's rows for the rank pull
  /// the next read runs. Skipped, exactly, when no edge and no node
  /// joined since the last refresh (edges are only ever added, so an
  /// equal edge count is an equal graph). Clustering needs no refresh —
  /// it is derived when read.
  void refresh();

  /// Degree-normalized SybilRank trust (0.0 before the first refresh,
  /// for unknown nodes, and when no seeds are configured).
  double rank_score(graph::NodeId u) const {
    const std::vector<double>& scores = rank_scores();
    return u < scores.size() ? scores[u] : 0.0;
  }
  /// The scores of the graph at the last refresh, one per node it had
  /// then; runs the pull that refresh left pending.
  const std::vector<double>& rank_scores() const {
    if (rank_stale_) pull();
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
  /// section (it runs a pending pull first); restore() rebuilds an
  /// identical scorer.
  std::vector<std::byte> serialize() const;
  void restore(const std::vector<std::byte>& bytes);

 private:
  /// Ranks the rows the last changed refresh compacted.
  void pull() const;

  std::uint32_t max_account_id_;
  std::vector<graph::NodeId> seeds_;
  graph::TimestampedGraph graph_;
  // The rank tier: the rows of the last changed refresh in CSR buffers
  // kept across refreshes, the graph size at the last refresh, and the
  // lazily pulled scores, stale while a pull over those rows is pending.
  std::vector<std::uint64_t> offsets_;
  std::vector<graph::NodeId> targets_;
  std::uint64_t ranked_edges_ = 0;
  graph::NodeId ranked_nodes_ = 0;
  mutable detect::SybilRankWorkspace workspace_;
  mutable std::vector<double> rank_scores_;
  mutable bool rank_stale_ = false;
  mutable RankCounters rank_;
  std::uint64_t edges_observed_ = 0;
  std::uint64_t ignored_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace sybil::service
