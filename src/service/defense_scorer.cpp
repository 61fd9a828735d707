#include "service/defense_scorer.h"

#include <algorithm>

#include "graph/csr.h"
#include "io/error.h"
#include "io/graph_snapshot.h"

namespace sybil::service {

namespace {

// v3 stores the graph and the rank tier only; v2 also stored a dirty
// set and the incremental clustering state, v1 the incremental rank's
// resident layers.
constexpr std::uint32_t kScorerStateVersion = 3;
/// Least encoded bytes per element, so each count is bounded by the
/// bytes left before it sizes an allocation: a node row is at least
/// its u64 degree; a neighbour is u32 node + f64 time + u8 weak.
constexpr std::size_t kRowMinBytes = 8;
constexpr std::size_t kNeighborBytes = 13;

[[noreturn]] void malformed(const char* what) {
  throw io::SnapshotError(io::SnapshotErrorCode::kMalformedSection, what);
}

}  // namespace

DefenseScorer::DefenseScorer(const core::DetectorOptions& options)
    : max_account_id_(options.ingest.max_account_id),
      seeds_(options.defense.seeds) {
  // Seeds exist from the start, so every pull hands each its trust
  // share, as the batch kernel does over the same graph.
  if (!seeds_.empty()) {
    graph_.ensure_nodes(*std::max_element(seeds_.begin(), seeds_.end()) + 1);
  }
}

void DefenseScorer::observe(const osn::Event& e) {
  if (e.type != osn::EventType::kRequestAccepted &&
      e.type != osn::EventType::kFriendshipSeeded) {
    return;
  }
  if (e.actor == e.subject || e.actor > max_account_id_ ||
      e.subject > max_account_id_) {
    ++ignored_;
    return;
  }
  graph_.ensure_nodes(std::max(e.actor, e.subject) + 1);
  if (graph_.add_edge(e.actor, e.subject, e.time)) {
    ++edges_observed_;
  } else {
    ++ignored_;  // duplicate friendship (e.g. re-accepted)
  }
}

void DefenseScorer::refresh() {
  ++refreshes_;
  // Edges are only ever added: the same edge count and no new node
  // mean the graph the scores came from.
  const bool changed = graph_.edge_count() != ranked_edges_ ||
                       graph_.node_count() != ranked_nodes_;
  if (!seeds_.empty() && changed) {
    // The graph grows on after this sweep; the pull must see it as is.
    graph::compact_rows(graph_, offsets_, targets_);
    rank_stale_ = true;
  }
  ranked_edges_ = graph_.edge_count();
  ranked_nodes_ = graph_.node_count();
}

void DefenseScorer::pull() const {
  rank_.rounds_total_ += detect::sybilrank_pull(
      offsets_, targets_, seeds_, 0, rank_scores_, workspace_);
  ++rank_.full_recomputes_;
  rank_stale_ = false;
}

double DefenseScorer::clustering_score(graph::NodeId u) const {
  if (u >= graph_.node_count() || graph_.degree(u) < 2) return 0.0;
  const auto row = graph_.neighbors(u);
  std::vector<graph::NodeId> nbrs(row.size());
  std::transform(row.begin(), row.end(), nbrs.begin(),
                 [](const graph::Neighbor& nb) { return nb.node; });
  std::sort(nbrs.begin(), nbrs.end());
  // Each edge among N(u) is seen once from either end.
  std::uint64_t twice = 0;
  for (const graph::NodeId w : nbrs) {
    for (const graph::Neighbor& x : graph_.neighbors(w)) {
      twice += std::binary_search(nbrs.begin(), nbrs.end(), x.node) ? 1 : 0;
    }
  }
  // Same expression as graph::local_clustering over the same exact
  // integers — bit-identical by construction.
  const std::size_t d = nbrs.size();
  return 2.0 * static_cast<double>(twice / 2) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

std::vector<std::byte> DefenseScorer::serialize() const {
  const std::vector<double>& scores = rank_scores();
  io::ByteWriter w;
  w.write(kScorerStateVersion);
  w.write(edges_observed_);
  w.write(ignored_);
  w.write(refreshes_);

  // Full adjacency, row by row in arrival order — exactly what restore
  // needs to rebuild the rows without the global edge sequence.
  const graph::NodeId n = graph_.node_count();
  w.write(static_cast<std::uint64_t>(n));
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto row = graph_.neighbors(u);
    w.write(static_cast<std::uint64_t>(row.size()));
    for (const graph::Neighbor& nb : row) {
      w.write(nb.node);
      w.write(nb.created_at);
      w.write(static_cast<std::uint8_t>(nb.weak ? 1 : 0));
    }
  }
  w.write(ranked_edges_);
  w.write(static_cast<std::uint64_t>(scores.size()));
  for (const double x : scores) w.write(x);
  w.write(rank_.full_recomputes_);
  w.write(rank_.rounds_total_);
  return std::move(w).take();
}

void DefenseScorer::restore(const std::vector<std::byte>& bytes) {
  io::ByteReader r(bytes);
  const auto version = r.read<std::uint32_t>();
  if (version != kScorerStateVersion) {
    throw io::SnapshotError(io::SnapshotErrorCode::kUnsupportedVersion,
                            "defense-scorer state version mismatch");
  }
  edges_observed_ = r.read<std::uint64_t>();
  ignored_ = r.read<std::uint64_t>();
  refreshes_ = r.read<std::uint64_t>();

  const auto n = r.read_count(kRowMinBytes);
  std::vector<std::vector<graph::Neighbor>> adj(n);
  std::uint64_t half_edges = 0;
  for (auto& row : adj) {
    row.resize(r.read_count(kNeighborBytes));
    half_edges += row.size();
    for (graph::Neighbor& nb : row) {
      nb.node = r.read<graph::NodeId>();
      nb.created_at = r.read<graph::Time>();
      nb.weak = r.read<std::uint8_t>() != 0;
    }
  }
  // Every undirected edge sits in two rows.
  if (half_edges % 2 != 0) malformed("defense-scorer rows list a half edge");
  graph::TimestampedGraph restored =
      graph::TimestampedGraph::from_adjacency(std::move(adj));
  io::require_simple_graph(restored);
  graph_ = std::move(restored);

  // The scores came from a prefix of the edges the graph holds now.
  ranked_edges_ = r.read<std::uint64_t>();
  if (ranked_edges_ > graph_.edge_count()) {
    malformed("defense-scorer ranked edge count exceeds the graph");
  }

  // Scores cover the nodes the graph had at the last pull, which saw
  // the last refresh's graph; they are current, not pending.
  const auto score_count = r.read_count(sizeof(double));
  if (score_count > n) malformed("defense-scorer score count implausible");
  rank_scores_.resize(score_count);
  for (double& x : rank_scores_) x = r.read<double>();
  ranked_nodes_ = static_cast<graph::NodeId>(score_count);
  rank_stale_ = false;
  rank_.full_recomputes_ = r.read<std::uint64_t>();
  rank_.rounds_total_ = r.read<std::uint64_t>();
  if (!r.exhausted()) malformed("trailing bytes after defense-scorer state");
}

}  // namespace sybil::service
