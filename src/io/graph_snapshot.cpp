#include "io/graph_snapshot.h"

#include <limits>
#include <utility>
#include <vector>

#include "core/metrics/instrument.h"
#include "graph/csr.h"
#include "io/container.h"

namespace sybil::io {
namespace {

using graph::NodeId;

// Section ids (docs/FORMATS.md §2).
constexpr std::uint32_t kSecMeta = 1;      // u64 node_count, u64 half_edges
constexpr std::uint32_t kSecDegrees = 2;   // u32[n] adjacency list lengths
constexpr std::uint32_t kSecNbrNode = 3;   // u32[half_edges] neighbor ids
constexpr std::uint32_t kSecNbrTime = 4;   // f64[half_edges] timestamps
constexpr std::uint32_t kSecNbrWeak = 5;   // u8[half_edges] weak-tie flags

struct GraphMeta {
  std::uint64_t node_count;
  std::uint64_t half_edges;
};

GraphMeta read_meta(const ContainerReader& reader) {
  const auto meta = reader.pod_section<std::uint64_t>(kSecMeta);
  if (meta.size() != 2) {
    throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                        "graph meta section must hold 2 u64 values");
  }
  if (meta[0] > std::numeric_limits<NodeId>::max()) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "node count exceeds NodeId range");
  }
  return {meta[0], meta[1]};
}

}  // namespace

void save_graph_snapshot(const graph::TimestampedGraph& g,
                         const std::string& path) {
  SYBIL_METRIC_SCOPED_TIMER(span, "io.graph.save");
  const NodeId n = g.node_count();
  const std::uint64_t half_edges = 2 * g.edge_count();
  std::vector<std::uint32_t> degrees(n);
  std::vector<NodeId> nodes;
  std::vector<double> times;
  std::vector<std::uint8_t> weak;
  nodes.reserve(half_edges);
  times.reserve(half_edges);
  weak.reserve(half_edges);
  for (NodeId u = 0; u < n; ++u) {
    degrees[u] = g.degree(u);
    for (const graph::Neighbor& nb : g.neighbors(u)) {
      nodes.push_back(nb.node);
      times.push_back(nb.created_at);
      weak.push_back(nb.weak ? 1 : 0);
    }
  }
  ContainerWriter writer(PayloadKind::kTimestampedGraph);
  const std::uint64_t meta[2] = {n, half_edges};
  writer.add_pod_section<std::uint64_t>(kSecMeta, meta);
  writer.add_pod_section<std::uint32_t>(kSecDegrees, degrees);
  writer.add_pod_section<NodeId>(kSecNbrNode, nodes);
  writer.add_pod_section<double>(kSecNbrTime, times);
  writer.add_pod_section<std::uint8_t>(kSecNbrWeak, weak);
  writer.commit(path);
}

graph::TimestampedGraph load_graph_snapshot(const std::string& path) {
  SYBIL_METRIC_SCOPED_TIMER(span, "io.graph.load");
  const ContainerReader reader(path, PayloadKind::kTimestampedGraph);
  const GraphMeta meta = read_meta(reader);
  const auto degrees = reader.pod_section<std::uint32_t>(kSecDegrees);
  const auto nodes = reader.pod_section<NodeId>(kSecNbrNode);
  const auto times = reader.pod_section<double>(kSecNbrTime);
  const auto weak = reader.pod_section<std::uint8_t>(kSecNbrWeak);
  if (degrees.size() != meta.node_count || nodes.size() != meta.half_edges ||
      times.size() != meta.half_edges || weak.size() != meta.half_edges ||
      meta.half_edges % 2 != 0) {
    throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                        "graph sections inconsistent with meta counts");
  }
  std::uint64_t sum = 0;
  for (const std::uint32_t d : degrees) sum += d;
  if (sum != meta.half_edges) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "degree sum does not match half-edge count");
  }
  std::vector<std::vector<graph::Neighbor>> adj(meta.node_count);
  std::size_t at = 0;
  for (std::uint64_t u = 0; u < meta.node_count; ++u) {
    adj[u].reserve(degrees[u]);
    for (std::uint32_t k = 0; k < degrees[u]; ++k, ++at) {
      adj[u].push_back({nodes[at], times[at], weak[at] != 0});
    }
  }
  auto g = graph::TimestampedGraph::from_adjacency(std::move(adj));
  require_simple_graph(g);
  return g;
}

void require_simple_graph(std::span<const std::uint64_t> offsets,
                          std::span<const NodeId> targets) {
  if (const char* defect = graph::simple_graph_defect(offsets, targets)) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation, defect);
  }
}

void require_simple_graph(const graph::TimestampedGraph& g) {
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> targets;
  graph::compact_rows(g, offsets, targets);
  require_simple_graph(offsets, targets);
}

}  // namespace sybil::io
