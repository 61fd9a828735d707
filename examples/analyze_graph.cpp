// File-driven Sybil topology analysis — the adoption path for real data.
//
// A platform exports (a) an anonymized friendship edge list with
// creation timestamps and (b) the node ids of its banned/confirmed
// Sybil accounts; this tool runs the paper's full Section-3 analysis on
// those files. No simulation involved.
//
// Usage:
//   analyze_graph <edges.txt|edges.snap> <sybil_ids.txt>
//   analyze_graph --demo <output_dir>     # write sample inputs and exit
//
// The edge file is either the plain-text format (graph::save_edge_list:
// "nodes N" header then "u v timestamp" lines) or a binary graph
// snapshot (io::save_graph_snapshot) — detected by the container magic,
// no flag needed. Binary is the full-fidelity, checksummed format; see
// docs/FORMATS.md. Sybil id file: one node id per line; '#' comments.
//
// An input it cannot use (a missing or corrupt file, an id that is not
// a node of the graph) fails with one "analyze_graph: <what>" line on
// stderr and exit status 2.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "attack/campaign.h"
#include "core/edge_order.h"
#include "core/topology.h"
#include "graph/io.h"
#include "io/graph_snapshot.h"

namespace {

/// Reads the id file: each line that is not empty or a '#' comment must
/// be one whole decimal token no larger than NodeId's range.
std::vector<sybil::osn::NodeId> load_ids(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open sybil id file " + path);
  std::vector<sybil::osn::NodeId> ids;
  std::string line;
  for (std::size_t line_no = 1; std::getline(is, line); ++line_no) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    sybil::osn::NodeId id = 0;
    const char* end = line.data() + line.size();
    const auto [ptr, ec] = std::from_chars(line.data(), end, id);
    if (ec != std::errc{} || ptr != end) {
      throw std::invalid_argument(path + " line " + std::to_string(line_no) +
                                  ": \"" + line + "\" is not a node id");
    }
    ids.push_back(id);
  }
  return ids;
}

/// True when the file starts with the binary container magic ("SYBS").
bool is_snapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  return is && std::memcmp(magic, "SYBS", sizeof(magic)) == 0;
}

int write_demo(const std::string& dir) {
  using namespace sybil;
  std::printf("Generating demo inputs (small campaign)...\n");
  attack::CampaignConfig cfg;
  cfg.normal_users = 10'000;
  cfg.sybils = 1'000;
  cfg.campaign_hours = 5'000.0;
  const auto result = attack::run_campaign(cfg);
  const std::string edges = dir + "/demo_edges.txt";
  const std::string snap = dir + "/demo_edges.snap";
  const std::string sybils = dir + "/demo_sybils.txt";
  graph::save_edge_list(result.network->graph(), edges);
  io::save_graph_snapshot(result.network->graph(), snap);
  std::ofstream os(sybils);
  os << "# demo Sybil ids\n";
  for (auto s : result.sybil_ids) os << s << '\n';
  std::printf("Wrote %s, %s and %s\nRun: analyze_graph %s %s\n",
              edges.c_str(), snap.c_str(), sybils.c_str(), edges.c_str(),
              sybils.c_str());
  return 0;
}

int analyze(const std::string& edges_path, const std::string& ids_path) {
  using namespace sybil;
  const graph::TimestampedGraph g = is_snapshot(edges_path)
                                        ? io::load_graph_snapshot(edges_path)
                                        : graph::load_edge_list(edges_path);
  const auto sybil_ids = load_ids(ids_path);
  for (auto s : sybil_ids) {
    if (s >= g.node_count()) {
      throw std::out_of_range("sybil id " + std::to_string(s) +
                              " is not a node of the " +
                              std::to_string(g.node_count()) + "-node graph");
    }
  }
  std::printf("Loaded %u nodes, %llu edges, %zu Sybil ids\n", g.node_count(),
              static_cast<unsigned long long>(g.edge_count()),
              sybil_ids.size());

  const core::TopologyAnalyzer topo(g, sybil_ids);
  std::printf("\nSybil edges:   %llu\n",
              static_cast<unsigned long long>(topo.total_sybil_edges()));
  std::printf("Attack edges:  %llu\n",
              static_cast<unsigned long long>(topo.total_attack_edges()));
  std::printf("Sybils with >=1 Sybil edge: %.1f%%\n",
              100.0 * topo.fraction_with_sybil_edge());

  const auto& comps = topo.component_stats();
  std::printf("\nSybil components (size >= 2): %zu\n", comps.size());
  std::printf("%10s %12s %13s %10s\n", "Sybils", "Sybil edges",
              "Attack edges", "Audience");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, comps.size()); ++i) {
    std::printf("%10u %12llu %13llu %10llu\n", comps[i].sybils,
                static_cast<unsigned long long>(comps[i].sybil_edges),
                static_cast<unsigned long long>(comps[i].attack_edges),
                static_cast<unsigned long long>(comps[i].audience));
  }

  if (!comps.empty()) {
    const auto members = topo.component_members(0);
    const auto rows = core::edge_order_rows(g, members, topo.sybil_mask());
    const auto summary = core::summarize_edge_order(rows);
    std::printf("\nGiant-component edge order: mean position %.3f "
                "(0.5 = accidental), KS %.3f, intentional rows %zu/%zu\n",
                summary.mean_position, summary.ks_statistic,
                summary.intentional_rows, summary.rows);
  }

  std::size_t above = 0;
  for (const auto& cs : comps) above += cs.attack_edges > cs.sybil_edges;
  std::printf("\nVerdict: %zu/%zu components have more attack than Sybil "
              "edges;\ncommunity-based detection %s viable on this data.\n",
              above, comps.size(),
              above == comps.size() ? "is NOT" : "may be");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool demo = argc == 3 && std::strcmp(argv[1], "--demo") == 0;
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: %s <edges.txt|edges.snap> <sybil_ids.txt>\n"
                 "       %s --demo <output_dir>\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    return demo ? write_demo(argv[2]) : analyze(argv[1], argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "analyze_graph: %s\n", e.what());
    return 2;
  }
}
