#include "io/graph_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "io/container.h"
#include "io/dataset_snapshot.h"
#include "ml/dataset.h"
#include "stats/rng.h"
#include "support/container_sections.h"
#include "support/non_simple_rows.h"

namespace sybil::io {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
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
  const std::string path = temp_path("dataset_as_graph.snap");
  ml::Dataset data(2);
  const double row[] = {1.0, 2.0};
  data.add(row, ml::kSybilLabel);
  save_dataset_snapshot(data, path);
  try {
    load_graph_snapshot(path);
    FAIL() << "expected kWrongPayload";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kWrongPayload);
  }
  std::remove(path.c_str());
}

// The mapped load and a read() of the same bytes into memory (the path
// taken where mmap fails) see the same sections, and the loaded graph
// equals the saved one row for row.
TEST(CsrSnapshot, MmapAndStreamLoadsAgree) {
  stats::Rng rng(9);
  const graph::TimestampedGraph g = graph::osn_like_graph(
      {.nodes = 400, .mean_links = 10.0, .triadic_closure = 0.2,
       .pa_beta = 1.0},
      rng);
  const graph::CsrGraph csr = graph::CsrGraph::from(g);
  const std::string path = temp_path("csr_rt.snap");
  save_csr_snapshot(csr, path);

  const iotest::Sections mapped =
      iotest::read_sections(path, PayloadKind::kCsrGraph);
  std::ifstream in(path, std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)), {});
  in.close();
  const auto* first = reinterpret_cast<const std::byte*>(raw.data());
  const ContainerReader streamed(
      std::vector<std::byte>(first, first + raw.size()),
      PayloadKind::kCsrGraph);
  ASSERT_FALSE(mapped.empty());
  for (const auto& [id, bytes] : mapped) {
    const auto got = streamed.section(id);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), got.begin(),
                           got.end()))
        << "section " << id;
  }

  const graph::CsrGraph loaded = load_csr_snapshot(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.node_count(), csr.node_count());
  ASSERT_EQ(loaded.edge_count(), csr.edge_count());
  for (graph::NodeId u = 0; u < csr.node_count(); ++u) {
    const auto expect = csr.neighbors(u);
    const auto got = loaded.neighbors(u);
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.begin(),
                           got.end()))
        << "node " << u;
  }
}

TEST(CsrSnapshot, ViewOutlivesLoadCall) {
  // The loaded graph owns its arrays: it outlives its file, and a copy
  // of it is a copy.
  const std::string path = temp_path("csr_view.snap");
  save_csr_snapshot(graph::CsrGraph::from(tiny_graph()), path);
  graph::CsrGraph loaded = load_csr_snapshot(path);
  std::remove(path.c_str());  // unlink: the graph must still be valid
  EXPECT_EQ(loaded.node_count(), 4u);
  EXPECT_EQ(loaded.degree(0), 2u);
  EXPECT_EQ(loaded.neighbors(1).size(), 2u);
  const graph::CsrGraph copy = loaded;
  loaded = graph::CsrGraph();
  EXPECT_EQ(copy.node_count(), 4u);
  EXPECT_EQ(copy.degree(0), 2u);
  EXPECT_EQ(copy.neighbors(1).size(), 2u);
}

// Rows that are not a simple undirected graph are refused by both
// graph loaders, through the one adjacency check.
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

TEST(CsrSnapshot, RefusesRowsThatAreNotASimpleGraph) {
  const std::string path = temp_path("csr_not_simple.snap");
  const auto save = [&](const graphtest::Rows& rows) {
    save_csr_snapshot(graphtest::csr_of(rows), path);
  };
  for (const auto& [defect, rows] : graphtest::non_simple_rows()) {
    SCOPED_TRACE(defect);
    save(rows);
    graphtest::expect_format_violation([&] { load_csr_snapshot(path); });
  }
  save(graphtest::simple_rows());  // the control
  EXPECT_EQ(load_csr_snapshot(path).edge_count(), 2u);
  std::remove(path.c_str());
}

TEST(DatasetSnapshot, RoundTripsBitExact) {
  ml::Dataset data(3);
  const double r0[] = {1.5, -2.0, 1e-300};
  const double r1[] = {0.0, 4.25, -0.0};
  data.add(r0, ml::kSybilLabel);
  data.add(r1, ml::kNormalLabel);

  const std::string path = temp_path("dataset_rt.snap");
  save_dataset_snapshot(data, path);
  const ml::Dataset loaded = load_dataset_snapshot(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), data.size());
  ASSERT_EQ(loaded.feature_count(), data.feature_count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(loaded.label(i), data.label(i));
    const auto expect = data.row(i);
    const auto got = loaded.row(i);
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(expect[j], got[j]);  // bit-exact, not approximately
    }
  }
}

TEST(DatasetSnapshot, RejectsBitFlippedLabel) {
  ml::Dataset data(1);
  const double row[] = {1.0};
  data.add(row, ml::kSybilLabel);
  const std::string path = temp_path("dataset_flip.snap");
  save_dataset_snapshot(data, path);

  // Flip one byte in the middle of the file and expect a checksum
  // rejection (never a dataset with a garbage label).
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  bytes[bytes.size() / 2] ^= 0x10;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  try {
    load_dataset_snapshot(path);
    FAIL() << "expected a typed SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksumMismatch);
  }
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

TEST(GoldenFiles, CsrV1Loads) {
  const graph::CsrGraph csr = load_csr_snapshot(golden("csr_v1.snap"));
  EXPECT_EQ(csr.node_count(), 4u);
  EXPECT_EQ(csr.edge_count(), 3u);
  EXPECT_TRUE(csr.has_edge(0, 1));
  EXPECT_TRUE(csr.has_edge(1, 2));
  EXPECT_TRUE(csr.has_edge(0, 3));
  EXPECT_FALSE(csr.has_edge(2, 3));
}

TEST(GoldenFiles, DatasetV1Loads) {
  const ml::Dataset data = load_dataset_snapshot(golden("dataset_v1.snap"));
  ASSERT_EQ(data.size(), 2u);
  ASSERT_EQ(data.feature_count(), 2u);
  EXPECT_EQ(data.label(0), ml::kSybilLabel);
  EXPECT_EQ(data.label(1), ml::kNormalLabel);
  EXPECT_EQ(data.row(0)[0], 1.5);
  EXPECT_EQ(data.row(0)[1], -2.0);
  EXPECT_EQ(data.row(1)[0], 0.25);
  EXPECT_EQ(data.row(1)[1], 4.0);
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
