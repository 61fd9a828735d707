// Binary graph snapshot over the io container (docs/FORMATS.md §2): a
// TimestampedGraph at full fidelity — per-node adjacency lists with
// neighbor ids, edge-creation timestamps and weak-tie flags, in
// insertion order (which the temporal analyses rely on and which a text
// edge list cannot represent losslessly).
//
// The loader rejects truncated, bit-flipped, misdeclared or
// future-versioned files, and rows that are not a simple undirected
// graph, with typed SnapshotErrors — there is no partially loaded
// state.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.h"

namespace sybil::io {

/// Atomically writes `path` (temp file + rename).
void save_graph_snapshot(const graph::TimestampedGraph& g,
                         const std::string& path);

graph::TimestampedGraph load_graph_snapshot(const std::string& path);

/// The adjacency check every loader of stored rows runs: throws
/// SnapshotError(kFormatViolation) with graph::simple_graph_defect()'s
/// reason unless the rows form a simple undirected graph.
void require_simple_graph(std::span<const std::uint64_t> offsets,
                          std::span<const graph::NodeId> targets);
/// The same check over a graph's rows (compacted first).
void require_simple_graph(const graph::TimestampedGraph& g);

}  // namespace sybil::io
