// Experiment-runner library for the bench binaries.
//
// Extracts the scaffolding every bench used to re-implement:
//   - GroundTruthLab: run the ground-truth simulation ONCE and share the
//     network snapshot + cached feature columns across every figure the
//     binary prints;
//   - DefenseScenario builders: the synthetic injected-community graph
//     and the wild campaign graph, with the standard seed/sample picks;
//   - run_battery / print_battery: score a scenario with every defense
//     in the DefenseRegistry, timing each score() call, and emit the
//     combined timing + DefenseMetrics table.
//
// Output determinism: every series/metric row is a pure function of the
// configs and SYBIL-seeded RNG streams, so it is byte-identical for any
// SYBIL_THREADS. Wall-clock timings are inherently not; they are
// printed as "# timing:" comment lines (suppressed entirely when
// SYBIL_BENCH_TIMING=off) so the measurement rows stay diffable. The
// observability registry (core/metrics) is dumped as "# metrics:"
// comment lines with wall-clock fields excluded (suppressed entirely
// with SYBIL_METRICS=off), so whole bench outputs remain byte-identical
// across SYBIL_THREADS and with instrumentation on or off.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "core/detector_options.h"
#include "core/ground_truth.h"
#include "detectors/defense.h"
#include "detectors/evaluation.h"
#include "faults/fault_injector.h"
#include "graph/csr.h"
#include "osn/events.h"
#include "osn/simulator.h"

namespace sybil::bench {

/// Simulate-once lab over the ground-truth simulator: constructing it
/// runs the simulation; feature columns are computed once on first use
/// and shared by every figure printed from the same binary.
class GroundTruthLab {
 public:
  explicit GroundTruthLab(osn::GroundTruthConfig config);

  const osn::Network& network() const noexcept { return sim_.network(); }
  const std::vector<osn::NodeId>& subject_normals() const noexcept {
    return sim_.subject_normals();
  }
  const std::vector<osn::NodeId>& subject_sybils() const noexcept {
    return sim_.subject_sybils();
  }

  /// Cached per-population feature columns (extracted in parallel).
  const core::FeatureColumns& normal_columns();
  const core::FeatureColumns& sybil_columns();

 private:
  osn::GroundTruthSimulator sim_;
  std::optional<core::FeatureColumns> normal_;
  std::optional<core::FeatureColumns> sybil_;
};

/// A labeled graph scenario every defense scores: the common input of
/// the Section 3.1 battery.
struct DefenseScenario {
  std::string name;
  graph::CsrGraph g;
  std::vector<bool> is_sybil;
  /// Verified honest accounts (first = verifier/collector for the
  /// pairwise protocols).
  std::vector<graph::NodeId> honest_seeds;
  /// Balanced honest+Sybil node sample for defenses that score per
  /// suspect rather than per graph.
  std::vector<graph::NodeId> eval_sample;
};

/// The classic prior-work setting: an OSN-like honest graph plus an
/// injected dense Sybil community behind a small attack-edge cut.
DefenseScenario synthetic_scenario(graph::NodeId honest, graph::NodeId sybils,
                                   std::uint64_t attack_edges = 100,
                                   std::uint64_t seed = 101);

/// The paper's wild setting: Sybils integrate via accepted stranger
/// requests in the campaign simulator.
DefenseScenario campaign_scenario(const attack::CampaignConfig& config);

/// Builds the scenario from an already-run campaign — for callers that
/// need the CampaignResult itself too (e.g. the chaos bench keeps the
/// network's event log). campaign_scenario() is run_campaign + this.
DefenseScenario scenario_from_campaign(const attack::CampaignResult& result);

/// Persists a scenario (CSR graph, labels, seed/sample picks) as a
/// kDefenseScenario container (docs/FORMATS.md §Scenario), so a bench
/// can reuse an expensive simulated graph instead of regenerating it —
/// the bench_defense_evaluation --save-graph/--load-graph flags.
/// Atomic (temp file + rename) like every snapshot writer.
void save_scenario(const DefenseScenario& scenario, const std::string& path);

/// Loads a saved scenario; its graph owns the CSR arrays copied out of
/// the file. Corrupt or mistyped files, and rows that are not a simple
/// undirected graph, are rejected with typed io::SnapshotErrors.
DefenseScenario load_scenario(const std::string& path);

/// One defense's result on one scenario.
struct DefenseRun {
  std::string defense;
  detect::Determinism determinism = detect::Determinism::kPure;
  /// True when the defense was scored on eval_sample only.
  bool sampled = false;
  double millis = 0.0;
  detect::DefenseMetrics metrics;
};

struct BatteryOptions {
  /// Defense names to run, in order (empty = every registered defense
  /// in registration order).
  std::vector<std::string> defenses;
  /// Tuning forwarded to every registry factory.
  detect::DefenseTuning tuning;
  /// Defenses restricted to the scenario's eval_sample (the pairwise /
  /// vote-collection protocols, which score suspects individually).
  std::vector<std::string> sampled_defenses = {"sybilguard", "sybillimit",
                                               "sumup"};
};

/// Scores the scenario with each defense and evaluates the result.
std::vector<DefenseRun> run_battery(const DefenseScenario& scenario,
                                    const BatteryOptions& options = {});

/// Prints the combined table: one metrics row per defense plus the
/// "# timing:" and "# metrics:" blocks (see the determinism note above).
void print_battery(const DefenseScenario& scenario,
                   const std::vector<DefenseRun>& runs);

/// Dumps the process-wide observability registry as "# metrics:"
/// comment lines (no-op when SYBIL_METRICS=off or when instrumentation
/// is compiled out). print_battery calls this; standalone benches that
/// skip the battery can call it directly.
void print_metrics_block();

/// One clean-vs-faulted streaming-detector comparison: the same event
/// log ingested twice through StreamDetector::ingest — once verbatim,
/// once through a seeded FaultInjector — with identical options.
/// Measures how much detection accuracy a degraded feed costs.
struct ChaosRun {
  /// What the injector actually did (events in/out, per-fault counts).
  faults::FaultReport report;
  /// Watermark used for both passes: the log's intrinsic inversion
  /// bound plus the injected skew bound.
  double watermark_hours = 0.0;
  /// Faulted-pass ingestion accounting (clean-pass dead letters are
  /// required to be zero; run_chaos throws if they are not).
  std::uint64_t applied = 0;
  std::uint64_t deduped = 0;
  std::uint64_t deadlettered = 0;
  std::uint64_t banned_party = 0;
  /// Flag-set accuracy against the campaign's ground-truth labels.
  std::size_t clean_flagged = 0;
  std::size_t faulted_flagged = 0;
  double clean_precision = 0.0;
  double clean_recall = 0.0;
  double faulted_precision = 0.0;
  double faulted_recall = 0.0;
};

/// Runs both passes. Deterministic in (log, options, rates) — the
/// faulted arrival sequence is a pure function of rates.seed.
ChaosRun run_chaos(const osn::EventLog& log,
                   const std::vector<bool>& is_sybil,
                   const core::DetectorOptions& options,
                   const faults::FaultRates& rates);

/// Prints the clean row, the faulted row, and the accuracy delta —
/// byte-stable rows (fault counts and flag sets are seed-determined).
void print_chaos(const ChaosRun& run);

/// One clean-vs-crash-recovered service comparison: the same event log
/// driven through a supervised service twice — once uninterrupted, once
/// killed (no flush, no warning) and recovered every `crash_every`
/// offers. Exactly-once recovery makes the flag sets identical; the
/// precision/recall delta row this produces is REQUIRED to be zero.
/// With `shards` > 1 both passes run through an N-way ShardRouter and
/// every kill takes the whole fleet down; recovery resumes from the
/// min-frontier across shards (docs/ROBUSTNESS.md §Sharded recovery).
struct CrashRecoveryRun {
  std::uint64_t crash_every = 0;
  std::uint64_t shards = 1;
  std::uint64_t events = 0;
  std::uint64_t crashes = 0;
  std::uint64_t records_replayed = 0;  // summed over all recoveries
  double recovery_total_ms = 0.0;      // wall clock, not byte-stable
  double recovery_max_ms = 0.0;
  std::size_t clean_flagged = 0;
  std::size_t recovered_flagged = 0;
  double clean_precision = 0.0;
  double clean_recall = 0.0;
  double recovered_precision = 0.0;
  double recovered_recall = 0.0;
};

/// Runs both passes in throwaway state directories under a root of the
/// call's own in the system temp dir, removed when the call returns or
/// throws, so concurrent calls are independent. Deterministic in (log,
/// options, crash_every, shards) apart from the wall-clock latency
/// fields.
CrashRecoveryRun run_crash_recovery(const osn::EventLog& log,
                                    const std::vector<bool>& is_sybil,
                                    const core::DetectorOptions& options,
                                    std::uint64_t crash_every,
                                    std::uint64_t shards = 1);

/// Prints the clean row, the recovered row, and the delta row
/// (byte-stable); recovery latency goes to a `# timing` comment line,
/// suppressed by SYBIL_BENCH_TIMING=off like every other timing line.
void print_crash_recovery(const CrashRecoveryRun& run);

}  // namespace sybil::bench
