// Decoder fuzzing of the graph and CSR snapshot loaders past the
// container's CRCs. Every byte of every section of the committed
// goldens is flipped (three masks), and every section is cut to each
// shorter length; each mutation is rewrapped in a well-formed container
// so its CRCs pass and the bytes reach the decoder. Every input must
// either throw io::SnapshotError or load a graph that passes the shared
// adjacency check (graph::simple_graph_defect). Under the asan-io
// preset an overread or an abort fails the test too.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "io/container.h"
#include "io/error.h"
#include "io/graph_snapshot.h"
#include "support/container_sections.h"

namespace sybil::io {
namespace {

std::string golden(const char* name) {
  return std::string(SYBIL_TEST_DATA_DIR) + "/" + name;
}

/// Calls visit(sections) once per one-section mutation of `sections`.
template <typename Visit>
void for_each_mutation(const iotest::Sections& sections, Visit visit) {
  for (const auto& [id, bytes] : sections) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
        iotest::Sections mutated = sections;
        mutated[id][i] ^= std::byte{mask};
        visit(mutated);
      }
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      iotest::Sections mutated = sections;
      mutated[id].resize(len);
      visit(mutated);
    }
  }
}

void expect_simple(std::span<const std::uint64_t> offsets,
                   std::span<const graph::NodeId> targets) {
  const char* defect = graph::simple_graph_defect(offsets, targets);
  EXPECT_EQ(defect, nullptr) << defect;
}

struct Tally {
  int loaded = 0;
  int refused = 0;
};

/// Runs every mutation of the golden `name` through `load`, which
/// returns normally only for an input that loaded (and checks it).
template <typename Load>
Tally fuzz_golden(const char* name, PayloadKind kind, Load load) {
  const std::string path = ::testing::TempDir() + "/fuzz_" + name;
  Tally tally;
  for_each_mutation(iotest::read_sections(golden(name), kind),
                    [&](const iotest::Sections& mutated) {
                      iotest::write_sections(mutated, kind, path);
                      try {
                        load(path);
                        ++tally.loaded;
                      } catch (const SnapshotError&) {
                        ++tally.refused;
                      }
                    });
  std::remove(path.c_str());
  return tally;
}

TEST(GraphSnapshotFuzz, MutatedSectionsLoadSimpleOrThrowTyped) {
  const Tally tally = fuzz_golden("graph_v1.snap", PayloadKind::kTimestampedGraph,
              [](const std::string& path) {
                const graph::TimestampedGraph g = load_graph_snapshot(path);
                std::vector<std::uint64_t> offsets;
                std::vector<graph::NodeId> targets;
                graph::compact_rows(g, offsets, targets);
                expect_simple(offsets, targets);
              });
  // Both outcomes occur: a flipped timestamp or weak flag still loads,
  // a flipped count or neighbour id does not.
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.refused, 0);
}

TEST(GraphSnapshotFuzz, MutatedCsrSectionsLoadSimpleOrThrowTyped) {
  const Tally tally = fuzz_golden("csr_v1.snap", PayloadKind::kCsrGraph,
              [](const std::string& path) {
                const graph::CsrGraph g = load_csr_snapshot(path);
                expect_simple(g.offsets(), g.targets());
              });
  EXPECT_GT(tally.refused, 0);
}

}  // namespace
}  // namespace sybil::io
