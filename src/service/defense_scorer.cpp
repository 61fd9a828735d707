#include "service/defense_scorer.h"

#include <algorithm>

#include "io/error.h"

namespace sybil::service {

namespace {

constexpr std::uint32_t kScorerStateVersion = 1;
/// Least encoded bytes per element, so each count is bounded by the
/// bytes left before it sizes an allocation: a node row is at least
/// its u64 degree; a neighbour is u32 node + f64 time + u8 weak.
constexpr std::size_t kRowMinBytes = 8;
constexpr std::size_t kNeighborBytes = 13;

}  // namespace

DefenseScorer::DefenseScorer(const core::DetectorOptions& options)
    : max_account_id_(options.ingest.max_account_id),
      seeds_(options.defense.seeds) {
  // Seeds must exist from the start: a seed account that only joined
  // the graph later would miss its layer-0 trust share until the next
  // full recompute, breaking incremental-vs-batch equivalence.
  for (const graph::NodeId s : seeds_) graph_.ensure_nodes(s + 1);
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
  if (!seeds_.empty()) {
    if (!rank_.initialized()) {
      rank_.recompute(graph_, seeds_);
    } else {
      rank_.update(graph_, dirty);
    }
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

  rank_.serialize(w);
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
  for (auto& row : adj) {
    row.resize(r.read_count(kNeighborBytes));
    for (graph::Neighbor& nb : row) {
      nb.node = r.read<graph::NodeId>();
      nb.created_at = r.read<graph::Time>();
      nb.weak = r.read<std::uint8_t>() != 0;
      if (nb.node >= n) {
        throw io::SnapshotError(io::SnapshotErrorCode::kMalformedSection,
                                "defense-scorer neighbor id out of range");
      }
    }
  }
  graph_ = graph::DynamicGraph(
      graph::TimestampedGraph::from_adjacency(std::move(adj)));

  const auto dirty_count = r.read_count(sizeof(graph::NodeId));
  if (dirty_count > n) {
    throw io::SnapshotError(io::SnapshotErrorCode::kMalformedSection,
                            "defense-scorer dirty count implausible");
  }
  for (std::uint64_t i = 0; i < dirty_count; ++i) {
    const auto u = r.read<graph::NodeId>();
    if (u >= n) {
      throw io::SnapshotError(io::SnapshotErrorCode::kMalformedSection,
                              "defense-scorer dirty id out of range");
    }
    graph_.mark_dirty(u);
  }

  rank_.restore(r);
  clustering_.restore(r);
}

}  // namespace sybil::service
