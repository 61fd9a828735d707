#include "graph/io.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "graph/generators.h"
#include "io/error.h"
#include "stats/rng.h"
#include "support/temp_path.h"

namespace sybil::graph {
namespace {

io::SnapshotErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const io::SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a SnapshotError";
  return io::SnapshotErrorCode::kOpenFailed;
}

TEST(GraphIo, RoundTripPreservesStructureAndTimes) {
  stats::Rng rng(1);
  const auto original = erdos_renyi(100, 0.05, rng);
  std::stringstream buffer;
  save_edge_list(original, buffer);
  const auto loaded = load_edge_list(buffer);
  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.edge_count(), original.edge_count());
  for (NodeId u = 0; u < original.node_count(); ++u) {
    for (const Neighbor& nb : original.neighbors(u)) {
      ASSERT_TRUE(loaded.has_edge(u, nb.node));
      EXPECT_DOUBLE_EQ(*loaded.edge_time(u, nb.node), nb.created_at);
    }
  }
}

TEST(GraphIo, LoadsEdgesWithoutTimestamps) {
  std::stringstream in("nodes 3\n0 1\n1 2\n");
  const auto g = load_edge_list(in);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(*g.edge_time(0, 1), 0.0);
}

TEST(GraphIo, SkipsBlankLines) {
  std::stringstream in("nodes 2\n\n0 1 3.5\n\n");
  const auto g = load_edge_list(in);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(*g.edge_time(0, 1), 3.5);
}

TEST(GraphIo, RejectsMissingHeader) {
  std::stringstream in("0 1\n");
  EXPECT_THROW(load_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsOutOfRangeEndpoint) {
  std::stringstream in("nodes 2\n0 5\n");
  EXPECT_THROW(load_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsSelfLoop) {
  std::stringstream in("nodes 2\n1 1\n");
  EXPECT_THROW(load_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsGarbageLine) {
  std::stringstream in("nodes 2\nhello world\n");
  EXPECT_THROW(load_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsDuplicateEdge) {
  std::stringstream in("nodes 3\n0 1\n1 2\n1 0 5.0\n");
  EXPECT_EQ(code_of([&] { load_edge_list(in); }),
            io::SnapshotErrorCode::kFormatViolation);
}

TEST(GraphIo, RejectsTrailingJunkAfterEdge) {
  std::stringstream in("nodes 2\n0 1 3.5 surprise\n");
  EXPECT_EQ(code_of([&] { load_edge_list(in); }),
            io::SnapshotErrorCode::kMalformedSection);
}

TEST(GraphIo, RejectsNonNumericTimestamp) {
  std::stringstream in("nodes 2\n0 1 soon\n");
  EXPECT_EQ(code_of([&] { load_edge_list(in); }),
            io::SnapshotErrorCode::kMalformedSection);
}

TEST(GraphIo, RejectsTrailingJunkAfterHeader) {
  std::stringstream in("nodes 2 extra\n0 1\n");
  EXPECT_EQ(code_of([&] { load_edge_list(in); }),
            io::SnapshotErrorCode::kMalformedSection);
}

TEST(GraphIo, MissingFileIsOpenFailed) {
  EXPECT_EQ(code_of([] { load_edge_list("/nonexistent/sybil.edges"); }),
            io::SnapshotErrorCode::kOpenFailed);
}

TEST(GraphIo, FileRoundTrip) {
  stats::Rng rng(2);
  const auto g = erdos_renyi(50, 0.1, rng);
  const std::string path =
      testsupport::fresh_temp_path("sybil_io_", "test.edges");
  save_edge_list(g, path);
  const auto loaded = load_edge_list(path);
  EXPECT_EQ(loaded.edge_count(), g.edge_count());
  EXPECT_THROW(load_edge_list(path + ".missing"), std::runtime_error);
}

}  // namespace
}  // namespace sybil::graph
