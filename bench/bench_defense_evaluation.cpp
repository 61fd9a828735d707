// Section 3.1 headline claim: community-based Sybil defenses, validated
// on synthetic graphs with injected tight-knit Sybil regions, fail on
// Sybils as they occur in the wild.
//
// Two graphs, the full registered defense battery:
//   SYNTHETIC — honest OSN-like graph + injected dense Sybil community
//               behind a small attack-edge cut (the prior-work setting);
//   WILD      — the campaign simulator's output, where Sybils integrate
//               into the social graph via accepted stranger requests.
// Every defense runs through the shared SybilDefense registry and one
// bench::run_battery invocation per scenario emits the combined
// timing + DefenseMetrics table (AUC and rejection at a 5% honest
// false-rejection budget). The paper's prediction: high on SYNTHETIC,
// chance-level on WILD — with the paper's own clustering signal the
// one ranker that flips the other way.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chaos/manifest.h"
#include "chaos/orchestrator.h"
#include "core/metrics/metrics.h"
#include "io/error.h"
#include "runner.h"

namespace {

constexpr char kUsage[] =
    "[--save-graph <path>] [--load-graph <path>] "
    "[--chaos-seed <n>] [--chaos-rate <r>] [--chaos-skew <hours>] "
    "[--crash-every <n>] [--shards <n>] "
    "[--scenario <manifest[,manifest...]>] "
    "[normal_users] [sybils] [campaign_hours]";

/// Extracts "--flag <value>" from argv, compacting the remaining
/// positional arguments in place. Returns the value or "".
std::string take_flag(int& argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= argc) {
      sybil::bench::usage_error(argv[0], kUsage, flag,
                                "flag (missing value)");
    }
    std::string value = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return value;
  }
  return {};
}

/// `--scenario` battery: runs each chaos manifest through the
/// orchestrator (with the undisturbed control and byte-identity check
/// when the manifest promises it) and prints one row per scenario.
/// Early-exits the binary — the defense battery is a different lab.
int run_scenario_battery(const std::string& list) {
  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "sybil_bench_scenarios").string();
  std::printf("# chaos scenario battery (docs/ROBUSTNESS.md §Scenario "
              "harness)\n");
  std::printf("%-32s %10s %10s %6s %6s %9s %10s\n", "scenario", "events",
              "arrivals", "kills", "recov", "identity", "ms");
  bool all_ok = true;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string path = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? list.size() + 1 : comma + 1;
    if (path.empty()) continue;
    sybil::chaos::ScenarioManifest manifest;
    try {
      manifest = sybil::chaos::load_manifest(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario %s: %s\n", path.c_str(), e.what());
      return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    sybil::chaos::ScenarioOutcome outcome;
    const char* verdict = "n/a";
    if (manifest.identity_expected()) {
      const sybil::chaos::IdentityVerdict v = sybil::chaos::verify_identity(
          manifest, root + "/" + manifest.name, &outcome);
      verdict = v.ok() ? "ok" : "FAIL";
      all_ok = all_ok && v.ok();
    } else {
      sybil::chaos::ChaosOrchestrator orchestrator(manifest);
      sybil::chaos::ChaosRunOptions run;
      run.dir = root + "/" + manifest.name + "/disturbed";
      outcome = orchestrator.run(run);
      verdict = outcome.identity_failures == 0 ? "acct-ok" : "FAIL";
      all_ok = all_ok && outcome.identity_failures == 0;
    }
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("%-32s %10llu %10llu %6llu %6llu %9s %10.1f\n",
                manifest.name.c_str(),
                static_cast<unsigned long long>(manifest.workload.events),
                static_cast<unsigned long long>(outcome.arrivals_total),
                static_cast<unsigned long long>(outcome.kills),
                static_cast<unsigned long long>(outcome.recoveries), verdict,
                std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sybil;
  const std::string save_path = take_flag(argc, argv, "--save-graph");
  const std::string load_path = take_flag(argc, argv, "--load-graph");
  const std::string chaos_seed = take_flag(argc, argv, "--chaos-seed");
  const std::string chaos_rate = take_flag(argc, argv, "--chaos-rate");
  const std::string chaos_skew = take_flag(argc, argv, "--chaos-skew");
  const std::string crash_every_arg = take_flag(argc, argv, "--crash-every");
  const std::string shards_arg = take_flag(argc, argv, "--shards");
  if (const std::string scenarios = take_flag(argc, argv, "--scenario");
      !scenarios.empty()) {
    return run_scenario_battery(scenarios);
  }
  const bool chaos =
      !chaos_seed.empty() || !chaos_rate.empty() || !chaos_skew.empty();
  if ((chaos || !crash_every_arg.empty()) && !load_path.empty()) {
    // Scenario snapshots persist only the graph; the chaos and
    // crash-recovery passes need the campaign's event log, which only a
    // fresh simulation carries.
    bench::usage_error(argv[0], kUsage, "--chaos-*/--crash-every",
                       "flag (incompatible with --load-graph)");
  }
  const std::uint64_t crash_every =
      crash_every_arg.empty()
          ? 0
          : bench::parse_count(argv[0], kUsage, crash_every_arg.c_str(),
                               "crash-every event count",
                               ~std::uint64_t{0});
  // Shard count for the crash-recovery pass: >1 routes both passes
  // through the N-way ShardRouter (whole-fleet kills, min-frontier
  // resume) instead of a single supervisor.
  const std::uint64_t shards =
      shards_arg.empty()
          ? 1
          : bench::parse_count(argv[0], kUsage, shards_arg.c_str(),
                               "shard count", 1024);
  if (shards == 0) {
    bench::usage_error(argv[0], kUsage, "--shards", "flag (must be >= 1)");
  }

  bench::print_header(
      "Defense evaluation — prior Sybil defenses: synthetic vs wild",
      "synthetic: 60k honest + 6k injected; wild: campaign at same scale "
      "(override: " +
          std::string(kUsage) + ")");

  // Parse overrides up front: an argv typo must fail before the
  // synthetic battery burns minutes of simulation.
  attack::CampaignConfig cfg;
  cfg.normal_users = 60'000;
  cfg.sybils = 6'000;
  cfg.campaign_hours = 20'000.0;
  if (argc > 1) {
    cfg.normal_users = static_cast<std::uint32_t>(bench::parse_count(
        argv[0], kUsage, argv[1], "normal user count", 50'000'000));
  }
  if (argc > 2) {
    cfg.sybils = static_cast<std::uint32_t>(
        bench::parse_count(argv[0], kUsage, argv[2], "sybil count",
                           50'000'000));
  }
  if (argc > 3) {
    cfg.campaign_hours =
        bench::parse_hours(argv[0], kUsage, argv[3], "campaign hours");
  }

  // A bad --load-graph fails typed (one stderr line, exit 2) before the
  // synthetic battery runs. This check records no metrics: the wild
  // battery loads the file again (milliseconds) where the metrics dump
  // reports it.
  if (!load_path.empty()) {
    auto& registry = core::metrics::MetricsRegistry::instance();
    const bool metrics_on = core::metrics::metrics_enabled();
    registry.set_enabled(false);
    try {
      bench::load_scenario(load_path);
    } catch (const io::SnapshotError& e) {
      std::fprintf(stderr, "bench_defense_evaluation: %s\n", e.what());
      return 2;
    }
    registry.set_enabled(metrics_on);
  }

  bench::BatteryOptions options;
  // Route length well below graph size — at Theta(sqrt(n log n)) with
  // small n the verifier's routes would blanket the whole graph.
  options.tuning.route_length = 30;
  options.tuning.max_routes_per_node = 16;
  // r ~ 1.5 sqrt(m) tails -> honest pairs intersect w.h.p.
  options.tuning.r_factor = 1.5;
  options.tuning.walks_per_seed = 200;
  options.tuning.mcmc_burn_in_sweeps = 15;
  options.tuning.mcmc_sample_sweeps = 25;

  {
    const bench::DefenseScenario synthetic =
        bench::synthetic_scenario(60'000, 6'000);
    bench::print_battery(synthetic, bench::run_battery(synthetic, options));
  }
  {
    // The wild graph is the expensive part (hours of simulated campaign
    // at scale): --save-graph snapshots it after the build, --load-graph
    // serves it back out of the binary container instead of simulating.
    // The chaos and crash-recovery passes replay the log.
    cfg.keep_event_log = chaos || crash_every > 0;
    const auto start = std::chrono::steady_clock::now();
    std::optional<attack::CampaignResult> campaign;
    if (load_path.empty()) campaign = attack::run_campaign(cfg);
    const bench::DefenseScenario wild =
        campaign ? bench::scenario_from_campaign(*campaign)
                 : bench::load_scenario(load_path);
    const auto stop = std::chrono::steady_clock::now();
    const double millis =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const char* timing_env = std::getenv("SYBIL_BENCH_TIMING");
    if (timing_env == nullptr || std::strcmp(timing_env, "off") != 0) {
      std::printf("# timing: wild scenario %s %.1f ms\n",
                  load_path.empty() ? "simulated in"
                                    : "loaded from snapshot in",
                  millis);
    }
    if (!save_path.empty()) {
      bench::save_scenario(wild, save_path);
      std::printf("# wild scenario saved to %s\n", save_path.c_str());
    }
    bench::print_battery(wild, bench::run_battery(wild, options));

    if (chaos) {
      // One knob stresses every fault channel at the same rate; the
      // skew bound shapes reordering/redelivery, the seed makes the
      // whole degraded feed replayable.
      faults::FaultRates rates;
      rates.seed = chaos_seed.empty()
                       ? 0
                       : bench::parse_count(argv[0], kUsage,
                                            chaos_seed.c_str(), "chaos seed",
                                            ~std::uint64_t{0});
      const double rate =
          chaos_rate.empty()
              ? 0.01
              : bench::parse_hours(argv[0], kUsage, chaos_rate.c_str(),
                                   "chaos rate");
      if (rate > 1.0) {
        bench::usage_error(argv[0], kUsage, chaos_rate.c_str(),
                           "chaos rate (must be <= 1)");
      }
      rates.drop = rates.reorder = rates.duplicate = rates.regress =
          rates.malform = rates.banned_party = rate;
      if (!chaos_skew.empty()) {
        rates.max_skew_hours = bench::parse_hours(
            argv[0], kUsage, chaos_skew.c_str(), "chaos skew hours");
      }
      bench::print_chaos(bench::run_chaos(campaign->network->log(),
                                          wild.is_sybil, {}, rates));
    }

    if (crash_every > 0) {
      // Kill-and-recover the supervised service every N events and
      // compare verdicts against the uninterrupted service: the delta
      // row is required to be zero (run_crash_recovery throws if not).
      bench::print_crash_recovery(bench::run_crash_recovery(
          campaign->network->log(), wild.is_sybil, {}, crash_every,
          shards));
    }
  }
  std::printf(
      "\n# paper's conclusion: every detector that separates the synthetic\n"
      "# Sybil region (AUC >> 0.5) collapses toward chance on wild Sybils.\n");
  return 0;
}
