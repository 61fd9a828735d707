#include "service/defense_scorer.h"

#include <algorithm>

#include "io/error.h"

namespace sybil::service {

namespace {

// v2 stores the rank tier as the last recompute's scores; v1 stored the
// incremental path's resident layers.
constexpr std::uint32_t kScorerStateVersion = 2;
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
  // Seeds exist from the start, so every recompute hands each its trust
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
  if (graph_.add_edge(e.actor, e.subject, e.time)) {
    clustering_.on_edge_added(graph_, e.actor, e.subject);
    ++edges_observed_;
  } else {
    ++ignored_;  // duplicate friendship (e.g. re-accepted)
  }
}

void DefenseScorer::refresh() {
  ++refreshes_;
  const auto dirty = graph_.dirty();
  dirty_processed_ += dirty.size();
  if (!clustering_.initialized()) clustering_.recompute(graph_);
  // Nothing dirty and no new node means the graph the scores came from.
  const bool changed =
      !dirty.empty() || rank_scores_.size() != graph_.node_count();
  if (!seeds_.empty() && changed) {
    graph_.compact_rows(offsets_, targets_);
    rank_.rounds_total_ += detect::sybilrank_pull(
        offsets_, targets_, seeds_, 0, rank_scores_, workspace_);
    ++rank_.full_recomputes_;
  }
  graph_.clear_dirty();
}

std::vector<std::byte> DefenseScorer::serialize() const {
  io::ByteWriter w;
  w.write(kScorerStateVersion);
  w.write(edges_observed_);
  w.write(ignored_);
  w.write(refreshes_);
  w.write(dirty_processed_);

  // Full adjacency, row by row in arrival order — exactly what restore
  // needs to rebuild both orderings without the global edge sequence.
  const graph::NodeId n = graph_.node_count();
  w.write(static_cast<std::uint64_t>(n));
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto row = graph_.chronological(u);
    w.write(static_cast<std::uint64_t>(row.size()));
    for (const graph::Neighbor& nb : row) {
      w.write(nb.node);
      w.write(nb.created_at);
      w.write(static_cast<std::uint8_t>(nb.weak ? 1 : 0));
    }
  }
  const auto dirty = graph_.dirty();
  w.write(static_cast<std::uint64_t>(dirty.size()));
  for (const graph::NodeId u : dirty) w.write(u);

  w.write(static_cast<std::uint64_t>(rank_scores_.size()));
  for (const double x : rank_scores_) w.write(x);
  w.write(rank_.full_recomputes_);
  w.write(rank_.rounds_total_);
  clustering_.serialize(w);
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
  dirty_processed_ = r.read<std::uint64_t>();

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
      if (nb.node >= n) malformed("defense-scorer neighbor id out of range");
    }
  }
  // Every undirected edge sits in two rows.
  if (half_edges % 2 != 0) malformed("defense-scorer rows list a half edge");
  graph::DynamicGraph restored(
      graph::TimestampedGraph::from_adjacency(std::move(adj)));
  // The rows must form a simple undirected graph, as add_edge builds:
  // no self-loop, no neighbour listed twice, and v in u's row iff u in
  // v's. Checked on the sorted rows the graph keeps.
  for (graph::NodeId u = 0; u < restored.node_count(); ++u) {
    const auto row = restored.sorted_neighbors(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] == u) malformed("defense-scorer row lists a self-loop");
      if (i > 0 && row[i] == row[i - 1]) {
        malformed("defense-scorer row lists a neighbour twice");
      }
      if (!restored.has_edge(row[i], u)) {
        malformed("defense-scorer rows are not symmetric");
      }
    }
  }
  graph_ = std::move(restored);

  const auto dirty_count = r.read_count(sizeof(graph::NodeId));
  if (dirty_count > n) malformed("defense-scorer dirty count implausible");
  for (std::uint64_t i = 0; i < dirty_count; ++i) {
    const auto u = r.read<graph::NodeId>();
    if (u >= n) malformed("defense-scorer dirty id out of range");
    graph_.mark_dirty(u);
  }

  // Scores cover the nodes the graph had at the last recompute.
  const auto score_count = r.read_count(sizeof(double));
  if (score_count > n) malformed("defense-scorer score count implausible");
  rank_scores_.resize(score_count);
  for (double& x : rank_scores_) x = r.read<double>();
  rank_.full_recomputes_ = r.read<std::uint64_t>();
  rank_.rounds_total_ = r.read<std::uint64_t>();

  clustering_.restore(r);
  if (clustering_.coefficients().size() > n) {
    malformed("defense-scorer clustering count implausible");
  }
  if (!r.exhausted()) malformed("trailing bytes after defense-scorer state");
}

}  // namespace sybil::service
