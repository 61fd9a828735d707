#include "io/graph_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "io/container.h"
#include "runner.h"
#include "service/checkpoint.h"
#include "stats/rng.h"
#include "support/container_sections.h"
#include "support/non_simple_rows.h"
#include "support/temp_path.h"

namespace sybil::io {
namespace {

std::string temp_path(const char* name) {
  return testsupport::fresh_temp_path("", name);
}

void expect_identical(const graph::TimestampedGraph& a,
                      const graph::TimestampedGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (graph::NodeId u = 0; u < a.node_count(); ++u) {
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) {
      // Element-wise: same neighbor, same timestamp bits, same tie
      // strength, same insertion order.
      EXPECT_EQ(na[i].node, nb[i].node) << "node " << u << " slot " << i;
      EXPECT_EQ(na[i].created_at, nb[i].created_at);
      EXPECT_EQ(na[i].weak, nb[i].weak);
    }
  }
}

graph::TimestampedGraph tiny_graph() {
  graph::TimestampedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.5, /*weak=*/true);
  g.add_edge(0, 3, 3.0);
  return g;
}

TEST(GraphSnapshot, RoundTripsFullFidelity) {
  stats::Rng rng(7);
  graph::TimestampedGraph g = graph::osn_like_graph(
      {.nodes = 500, .mean_links = 8.0, .triadic_closure = 0.2,
       .pa_beta = 1.0},
      rng);
  // Weak ties and fresh timestamps on top of the generator output.
  g.add_edge(0, 499, 123.25, /*weak=*/true);

  const std::string path = temp_path("graph_rt.snap");
  save_graph_snapshot(g, path);
  expect_identical(g, load_graph_snapshot(path));
  std::remove(path.c_str());
}

TEST(GraphSnapshot, BinaryMatchesTextForSharedContent) {
  // The text edge list is lossy (no weak flags, no adjacency order), so
  // equivalence is on the shared content: edge set + timestamps.
  stats::Rng rng(8);
  const graph::TimestampedGraph g = graph::osn_like_graph(
      {.nodes = 300, .mean_links = 6.0, .triadic_closure = 0.1,
       .pa_beta = 1.0},
      rng);

  std::stringstream text;
  graph::save_edge_list(g, text);
  const graph::TimestampedGraph from_text = graph::load_edge_list(text);

  const std::string path = temp_path("graph_text_vs_bin.snap");
  save_graph_snapshot(g, path);
  const graph::TimestampedGraph from_binary = load_graph_snapshot(path);
  std::remove(path.c_str());

  ASSERT_EQ(from_text.node_count(), from_binary.node_count());
  ASSERT_EQ(from_text.edge_count(), from_binary.edge_count());
  for (graph::NodeId u = 0; u < from_binary.node_count(); ++u) {
    for (const graph::Neighbor& nb : from_binary.neighbors(u)) {
      ASSERT_TRUE(from_text.has_edge(u, nb.node));
      EXPECT_DOUBLE_EQ(*from_text.edge_time(u, nb.node), nb.created_at);
    }
  }
}

TEST(GraphSnapshot, SaveIsByteStable) {
  const std::string a = temp_path("graph_stable_a.snap");
  const std::string b = temp_path("graph_stable_b.snap");
  save_graph_snapshot(tiny_graph(), a);
  save_graph_snapshot(tiny_graph(), b);
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::string ba((std::istreambuf_iterator<char>(fa)), {});
  const std::string bb((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_FALSE(ba.empty());
  EXPECT_EQ(ba, bb);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(GraphSnapshot, RejectsWrongPayloadKind) {
  const std::string path = temp_path("scenario_as_graph.snap");
  ContainerWriter writer(PayloadKind::kDefenseScenario);
  writer.add_section(1, std::vector<std::byte>(8));
  writer.commit(path, SyncMode::kNever);
  try {
    load_graph_snapshot(path);
    FAIL() << "expected kWrongPayload";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kWrongPayload);
  }
  std::remove(path.c_str());
}

// Rows that are not a simple undirected graph are refused through the
// one adjacency check.
TEST(GraphSnapshot, RefusesRowsThatAreNotASimpleGraph) {
  const std::string path = temp_path("graph_not_simple.snap");
  const auto save = [&](const graphtest::Rows& rows) {
    save_graph_snapshot(
        graph::TimestampedGraph::from_adjacency(graphtest::adjacency_of(rows)),
        path);
  };
  for (const auto& [defect, rows] : graphtest::non_simple_rows()) {
    SCOPED_TRACE(defect);
    save(rows);
    graphtest::expect_format_violation([&] { load_graph_snapshot(path); });
  }
  save(graphtest::simple_rows());  // the control
  EXPECT_EQ(load_graph_snapshot(path).edge_count(), 2u);
  std::remove(path.c_str());
}

// --- Golden files: the committed v1 binaries in tests/data/ ----------
//
// These freeze the on-disk format: if serialization drifts without a
// format-version bump, the byte comparison (and the CRCs) catch it.

std::string golden(const char* name) {
  return std::string(SYBIL_TEST_DATA_DIR) + "/" + name;
}

TEST(GoldenFiles, GraphV1LoadsAndMatches) {
  const graph::TimestampedGraph g = load_graph_snapshot(golden("graph_v1.snap"));
  expect_identical(g, tiny_graph());
}

TEST(GoldenFiles, GraphV1BytesAreFrozen) {
  const std::string fresh = temp_path("graph_golden_fresh.snap");
  save_graph_snapshot(tiny_graph(), fresh);
  std::ifstream fa(golden("graph_v1.snap"), std::ios::binary);
  std::ifstream fb(fresh, std::ios::binary);
  ASSERT_TRUE(fa.good());
  const std::string ba((std::istreambuf_iterator<char>(fa)), {});
  const std::string bb((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(ba, bb)
      << "on-disk graph format changed without a format-version bump";
  std::remove(fresh.c_str());
}

// The mapped load of a file and a read() of the same bytes into memory
// (ContainerReader's two constructors) see the same sections.
TEST(GoldenFiles, MmapAndStreamLoadsAgree) {
  const std::string path = golden("graph_v1.snap");
  const iotest::Sections mapped =
      iotest::read_sections(path, PayloadKind::kTimestampedGraph);
  std::ifstream in(path, std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)), {});
  const auto* first = reinterpret_cast<const std::byte*>(raw.data());
  const ContainerReader streamed(
      std::vector<std::byte>(first, first + raw.size()),
      PayloadKind::kTimestampedGraph);
  ASSERT_FALSE(mapped.empty());
  for (const auto& [id, bytes] : mapped) {
    const auto got = streamed.section(id);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), got.begin(),
                           got.end()))
        << "section " << id;
  }
}

// Kinds 2, 3 and 4 belonged to retired formats (docs/FORMATS.md §1.4).
// They stay reserved: a file stamped with one is refused by every live
// loader as the wrong payload, never misread.
TEST(RetiredKinds, RefusedByEveryLoader) {
  const std::string path = temp_path("retired_kind.snap");
  const std::function<void()> loaders[] = {
      [&] { load_graph_snapshot(path); },
      [&] { bench::load_scenario(path); },
      [&] { service::load_service_checkpoint(path); },
  };
  for (const std::uint32_t kind : {2u, 3u, 4u}) {
    ContainerWriter writer(static_cast<PayloadKind>(kind));
    writer.add_section(1, std::vector<std::byte>(16));
    writer.commit(path, SyncMode::kNever);
    for (std::size_t i = 0; i < std::size(loaders); ++i) {
      SCOPED_TRACE("kind " + std::to_string(kind) + ", loader " +
                   std::to_string(i));
      try {
        loaders[i]();
        ADD_FAILURE() << "expected kWrongPayload";
      } catch (const SnapshotError& e) {
        EXPECT_EQ(e.code(), SnapshotErrorCode::kWrongPayload);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(GoldenFiles, TruncatedGoldenIsRejected) {
  std::ifstream in(golden("graph_v1.snap"), std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  bytes.resize(bytes.size() / 2);
  std::vector<std::byte> image(bytes.size());
  std::memcpy(image.data(), bytes.data(), bytes.size());
  try {
    ContainerReader reader(std::move(image), PayloadKind::kTimestampedGraph);
    FAIL() << "expected kTruncated";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kTruncated);
  }
}

}  // namespace
}  // namespace sybil::io
