// Round trip of the bench DefenseScenario container (the storage behind
// bench_defense_evaluation --save-graph / --load-graph).
#include "runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "graph/generators.h"
#include "io/error.h"
#include "io/graph_snapshot.h"
#include "stats/rng.h"
#include "support/non_simple_rows.h"
#include "support/temp_path.h"

namespace sybil::bench {
namespace {

TEST(ScenarioSnapshot, RoundTripsEverything) {
  const DefenseScenario original = synthetic_scenario(400, 60, 20, 5);
  const std::string path = testsupport::fresh_temp_path("scenario_", "rt.snap");
  save_scenario(original, path);
  const DefenseScenario loaded = load_scenario(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.is_sybil, original.is_sybil);
  EXPECT_EQ(loaded.honest_seeds, original.honest_seeds);
  EXPECT_EQ(loaded.eval_sample, original.eval_sample);
  ASSERT_EQ(loaded.g.node_count(), original.g.node_count());
  ASSERT_EQ(loaded.g.edge_count(), original.g.edge_count());
  const auto eo = original.g.offsets();
  const auto lo = loaded.g.offsets();
  ASSERT_TRUE(std::equal(eo.begin(), eo.end(), lo.begin(), lo.end()));
  const auto et = original.g.targets();
  const auto lt = loaded.g.targets();
  ASSERT_TRUE(std::equal(et.begin(), et.end(), lt.begin(), lt.end()));
}

TEST(ScenarioSnapshot, LoadedGraphSurvivesUnlink) {
  const DefenseScenario original = synthetic_scenario(200, 30, 10, 6);
  const std::string path =
      testsupport::fresh_temp_path("scenario_", "unlink.snap");
  save_scenario(original, path);
  const DefenseScenario loaded = load_scenario(path);
  std::remove(path.c_str());
  // The loaded graph owns its arrays; traversal still works.
  std::uint64_t degree_sum = 0;
  for (graph::NodeId u = 0; u < loaded.g.node_count(); ++u) {
    degree_sum += loaded.g.degree(u);
  }
  EXPECT_EQ(degree_sum, 2 * loaded.g.edge_count());
}

TEST(ScenarioSnapshot, RejectsNonScenarioFile) {
  const std::string path =
      testsupport::fresh_temp_path("scenario_", "kind.snap");
  // A graph snapshot is a valid container of the WRONG payload kind.
  stats::Rng rng(3);
  const auto g = graph::osn_like_graph(
      {.nodes = 50, .mean_links = 4.0, .triadic_closure = 0.1,
       .pa_beta = 1.0},
      rng);
  io::save_graph_snapshot(g, path);
  try {
    load_scenario(path);
    FAIL() << "expected kWrongPayload";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kWrongPayload);
  }
  std::remove(path.c_str());
}

TEST(ScenarioSnapshot, RefusesRowsThatAreNotASimpleGraph) {
  const std::string path =
      testsupport::fresh_temp_path("scenario_", "rows.snap");
  DefenseScenario s;
  s.name = "rows";
  s.is_sybil = {false, false, true};
  s.honest_seeds = {0};
  s.eval_sample = {0, 2};
  const auto save = [&](const graphtest::Rows& rows) {
    s.g = graphtest::csr_of(rows);
    save_scenario(s, path);
  };
  for (const auto& [defect, rows] : graphtest::non_simple_rows()) {
    SCOPED_TRACE(defect);
    save(rows);
    graphtest::expect_format_violation([&] { load_scenario(path); });
  }
  save(graphtest::simple_rows());  // the control
  EXPECT_EQ(load_scenario(path).g.edge_count(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sybil::bench
