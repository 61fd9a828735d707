// Decoder fuzzing of the graph snapshot and defense scenario loaders
// past the container's CRCs. Every byte of every section of a source
// file (the committed graph golden, a small scenario written in-test)
// is flipped (three masks), and every section is cut to each shorter
// length; each mutation is rewrapped in a well-formed container so its
// CRCs pass and the bytes reach the decoder. Every input must either
// throw io::SnapshotError or load a graph that passes the shared
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
#include "runner.h"
#include "support/container_sections.h"
#include "support/temp_path.h"

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

/// Runs every mutation of the container at `source` through `load`,
/// which returns normally only for an input that loaded (and checks it).
template <typename Load>
Tally fuzz_file(const std::string& source, PayloadKind kind, Load load) {
  const std::string path = source + ".fuzz";
  Tally tally;
  for_each_mutation(iotest::read_sections(source, kind),
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
  const Tally tally = fuzz_file(golden("graph_v1.snap"),
              PayloadKind::kTimestampedGraph, [](const std::string& path) {
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

TEST(GraphSnapshotFuzz, MutatedScenarioLoadsSimpleInRangeOrThrowsTyped) {
  bench::DefenseScenario s;
  s.name = "fuzz";
  s.g = graph::CsrGraph::from_edges(
      6, std::vector<std::pair<graph::NodeId, graph::NodeId>>{
             {0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {0, 3}});
  s.is_sybil = {false, false, false, true, true, true};
  s.honest_seeds = {0, 1};
  s.eval_sample = {0, 2, 3, 5};
  const std::string source =
      testsupport::fresh_temp_path("fuzz_", "scenario.snap");
  bench::save_scenario(s, source);
  const Tally tally = fuzz_file(source, PayloadKind::kDefenseScenario,
              [](const std::string& path) {
                const bench::DefenseScenario got = bench::load_scenario(path);
                const graph::NodeId n = got.g.node_count();
                expect_simple(got.g.offsets(), got.g.targets());
                EXPECT_EQ(got.is_sybil.size(), n);
                for (const auto& ids : {got.honest_seeds, got.eval_sample}) {
                  for (const graph::NodeId v : ids) EXPECT_LT(v, n);
                }
              });
  std::remove(source.c_str());
  // Both outcomes occur: a flipped label or name byte still loads, a
  // flipped count or neighbour id does not.
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.refused, 0);
}

}  // namespace
}  // namespace sybil::io
