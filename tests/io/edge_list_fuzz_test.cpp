// Decoder fuzzing of the text edge-list loader (graph/io.h). Every byte
// of the committed golden list is flipped (three masks), and the list
// is cut to each shorter length. Every input must either throw
// io::SnapshotError or load a simple graph (graph::simple_graph_defect)
// no larger than its header allows. Under the asan-io preset an
// overread or an abort fails the test too.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/io.h"
#include "io/error.h"

namespace sybil::io {
namespace {

std::string golden_text() {
  std::ifstream in(std::string(SYBIL_TEST_DATA_DIR) + "/edge_list_v1.txt",
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Tally {
  int loaded = 0;
  int refused = 0;
};

/// Loads `text`; a graph that loads must be simple, and no mutation of
/// the golden can name more than 99 nodes.
void load(const std::string& text, Tally& tally) {
  std::istringstream in(text);
  try {
    const graph::TimestampedGraph g = graph::load_edge_list(in);
    EXPECT_LT(g.node_count(), 100u);
    std::vector<std::uint64_t> offsets;
    std::vector<graph::NodeId> targets;
    graph::compact_rows(g, offsets, targets);
    const char* defect = graph::simple_graph_defect(offsets, targets);
    EXPECT_EQ(defect, nullptr) << defect;
    ++tally.loaded;
  } catch (const SnapshotError&) {
    ++tally.refused;
  }
}

TEST(EdgeListFuzz, GoldenLoads) {
  std::istringstream in(golden_text());
  const graph::TimestampedGraph g = graph::load_edge_list(in);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 10u);
}

TEST(EdgeListFuzz, FlippedBytesLoadSimpleOrThrowTyped) {
  const std::string golden = golden_text();
  ASSERT_FALSE(golden.empty());
  Tally tally;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string mutated = golden;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      load(mutated, tally);
    }
  }
  // Both outcomes occur: a flipped timestamp digit still loads, a
  // flipped keyword or separator does not.
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.refused, 0);
}

TEST(EdgeListFuzz, TruncatedListsLoadSimpleOrThrowTyped) {
  const std::string golden = golden_text();
  ASSERT_FALSE(golden.empty());
  Tally tally;
  for (std::size_t len = 0; len < golden.size(); ++len) {
    load(golden.substr(0, len), tally);
  }
  // A cut at a line end loads a prefix of the edges; a cut inside the
  // header does not.
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.refused, 0);
}

}  // namespace
}  // namespace sybil::io
