#include "runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/metrics/instrument.h"
#include "core/stream_detector.h"
#include "service/router.h"
#include "service/supervisor.h"
#include "graph/generators.h"
#include "io/container.h"
#include "io/graph_snapshot.h"
#include "stats/rng.h"

#if SYBIL_METRICS_COMPILED
#include "core/metrics/metrics.h"
#endif

namespace sybil::bench {

GroundTruthLab::GroundTruthLab(osn::GroundTruthConfig config)
    : sim_(std::move(config)) {
  sim_.run();
}

const core::FeatureColumns& GroundTruthLab::normal_columns() {
  if (!normal_) {
    normal_ = core::feature_columns(sim_.network(), sim_.subject_normals());
  }
  return *normal_;
}

const core::FeatureColumns& GroundTruthLab::sybil_columns() {
  if (!sybil_) {
    sybil_ = core::feature_columns(sim_.network(), sim_.subject_sybils());
  }
  return *sybil_;
}

namespace {

/// The standard seed/sample picks shared by both scenario builders —
/// the same index arithmetic the defense bench has always used, so
/// series stay comparable across PRs.
void pick_seeds_and_sample(DefenseScenario& s,
                           const std::vector<graph::NodeId>& normal_ids,
                           const std::vector<graph::NodeId>& sybil_ids) {
  for (std::size_t i = 0; i < 50; ++i) {
    s.honest_seeds.push_back(normal_ids[(i * 997 + 13) % normal_ids.size()]);
  }
  std::vector<graph::NodeId> honest_sample, sybil_sample;
  for (std::size_t i = 0; i < 300; ++i) {
    honest_sample.push_back(normal_ids[(i * 131 + 7) % normal_ids.size()]);
    sybil_sample.push_back(sybil_ids[(i * 17) % sybil_ids.size()]);
  }
  // Deduplicate but keep the honest-then-sybil order deterministic.
  auto dedup = [](std::vector<graph::NodeId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  dedup(honest_sample);
  dedup(sybil_sample);
  s.eval_sample.reserve(honest_sample.size() + sybil_sample.size());
  s.eval_sample.insert(s.eval_sample.end(), honest_sample.begin(),
                       honest_sample.end());
  s.eval_sample.insert(s.eval_sample.end(), sybil_sample.begin(),
                       sybil_sample.end());
}

}  // namespace

DefenseScenario synthetic_scenario(graph::NodeId honest, graph::NodeId sybils,
                                   std::uint64_t attack_edges,
                                   std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto base = graph::osn_like_graph(
      {.nodes = honest, .mean_links = 12.0, .triadic_closure = 0.2,
       .pa_beta = 1.0},
      rng);
  // The classic setting: a dense Sybil region (internal degree ~40)
  // behind a SMALL attack-edge cut — "normal users are unlikely to
  // accept requests from unknown strangers".
  const auto combined = graph::inject_sybil_community(
      base, sybils, std::min(0.5, 40.0 / sybils), attack_edges, rng);
  DefenseScenario s;
  s.name = "SYNTHETIC (injected community)";
  s.g = graph::CsrGraph::from(combined);
  s.is_sybil.assign(honest + sybils, false);
  for (graph::NodeId v = honest; v < honest + sybils; ++v) s.is_sybil[v] = true;
  std::vector<graph::NodeId> normal_ids(honest), sybil_ids(sybils);
  for (graph::NodeId v = 0; v < honest; ++v) normal_ids[v] = v;
  for (graph::NodeId v = 0; v < sybils; ++v) sybil_ids[v] = honest + v;
  pick_seeds_and_sample(s, normal_ids, sybil_ids);
  return s;
}

DefenseScenario scenario_from_campaign(const attack::CampaignResult& result) {
  DefenseScenario s;
  s.name = "WILD (campaign simulator)";
  s.g = graph::CsrGraph::from(result.network->graph());
  s.is_sybil.assign(s.g.node_count(), false);
  for (graph::NodeId v : result.sybil_ids) s.is_sybil[v] = true;
  pick_seeds_and_sample(s, result.normal_ids, result.sybil_ids);
  return s;
}

DefenseScenario campaign_scenario(const attack::CampaignConfig& config) {
  return scenario_from_campaign(attack::run_campaign(config));
}

namespace {

// Scenario container sections (docs/FORMATS.md §Scenario).
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecName = 2;
constexpr std::uint32_t kSecOffsets = 3;
constexpr std::uint32_t kSecTargets = 4;
constexpr std::uint32_t kSecIsSybil = 5;
constexpr std::uint32_t kSecHonestSeeds = 6;
constexpr std::uint32_t kSecEvalSample = 7;

}  // namespace

void save_scenario(const DefenseScenario& scenario, const std::string& path) {
  SYBIL_METRIC_SCOPED_TIMER(span, "bench.scenario.save");
  io::ContainerWriter writer(io::PayloadKind::kDefenseScenario);
  {
    io::ByteWriter w;
    w.write<std::uint64_t>(scenario.g.node_count());
    w.write<std::uint64_t>(scenario.g.targets().size());
    w.write<std::uint64_t>(scenario.honest_seeds.size());
    w.write<std::uint64_t>(scenario.eval_sample.size());
    w.write<std::uint64_t>(scenario.name.size());
    writer.add_section(kSecMeta, std::move(w).take());
  }
  {
    std::vector<std::byte> name(scenario.name.size());
    std::memcpy(name.data(), scenario.name.data(), scenario.name.size());
    writer.add_section(kSecName, std::move(name));
  }
  writer.add_pod_section<std::uint64_t>(kSecOffsets, scenario.g.offsets());
  writer.add_pod_section<graph::NodeId>(kSecTargets, scenario.g.targets());
  {
    std::vector<std::uint8_t> labels(scenario.is_sybil.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = scenario.is_sybil[i] ? 1 : 0;
    }
    writer.add_pod_section<std::uint8_t>(kSecIsSybil, labels);
  }
  writer.add_pod_section<graph::NodeId>(kSecHonestSeeds,
                                        scenario.honest_seeds);
  writer.add_pod_section<graph::NodeId>(kSecEvalSample, scenario.eval_sample);
  writer.commit(path);
}

DefenseScenario load_scenario(const std::string& path) {
  SYBIL_METRIC_SCOPED_TIMER(span, "bench.scenario.load");
  const io::ContainerReader reader(path, io::PayloadKind::kDefenseScenario);

  io::ByteReader meta(reader.section(kSecMeta));
  const auto nodes = meta.read<std::uint64_t>();
  const auto half_edges = meta.read<std::uint64_t>();
  const auto honest = meta.read<std::uint64_t>();
  const auto eval = meta.read<std::uint64_t>();
  const auto name_len = meta.read<std::uint64_t>();
  if (!meta.exhausted()) {
    throw io::SnapshotError(io::SnapshotErrorCode::kMalformedSection,
                            "scenario meta has trailing bytes");
  }

  const auto offsets = reader.pod_section<std::uint64_t>(kSecOffsets);
  const auto targets = reader.pod_section<graph::NodeId>(kSecTargets);
  const auto labels = reader.pod_section<std::uint8_t>(kSecIsSybil);
  const auto seeds = reader.pod_section<graph::NodeId>(kSecHonestSeeds);
  const auto sample = reader.pod_section<graph::NodeId>(kSecEvalSample);
  const auto name = reader.section(kSecName);
  if (offsets.size() != nodes + 1 || targets.size() != half_edges ||
      labels.size() != nodes || seeds.size() != honest ||
      sample.size() != eval || name.size() != name_len) {
    throw io::SnapshotError(io::SnapshotErrorCode::kMalformedSection,
                            "scenario sections inconsistent with meta");
  }
  io::require_simple_graph(offsets, targets);
  const auto in_range = [nodes](std::span<const graph::NodeId> ids) {
    for (const graph::NodeId v : ids) {
      if (v >= nodes) return false;
    }
    return true;
  };
  if (!in_range(seeds) || !in_range(sample)) {
    throw io::SnapshotError(io::SnapshotErrorCode::kFormatViolation,
                            "scenario seed/sample node id out of range");
  }
  for (const std::uint8_t b : labels) {
    if (b > 1) {
      throw io::SnapshotError(io::SnapshotErrorCode::kFormatViolation,
                              "scenario label byte out of range");
    }
  }

  DefenseScenario s;
  s.name.assign(reinterpret_cast<const char*>(name.data()), name.size());
  s.g = graph::CsrGraph::from_rows({offsets.begin(), offsets.end()},
                                   {targets.begin(), targets.end()});
  s.is_sybil.resize(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    s.is_sybil[i] = labels[i] != 0;
  }
  s.honest_seeds.assign(seeds.begin(), seeds.end());
  s.eval_sample.assign(sample.begin(), sample.end());
  return s;
}

std::vector<DefenseRun> run_battery(const DefenseScenario& scenario,
                                    const BatteryOptions& options) {
  SYBIL_METRIC_SCOPED_TIMER(span, "bench.run_battery");
  const std::vector<std::string> names = options.defenses.empty()
                                             ? detect::DefenseRegistry::names()
                                             : options.defenses;
  std::vector<DefenseRun> runs;
  runs.reserve(names.size());
  for (const std::string& name : names) {
    const auto defense = detect::DefenseRegistry::create(name, options.tuning);
    DefenseRun run;
    run.defense = name;
    run.determinism = defense->determinism();
    run.sampled = std::find(options.sampled_defenses.begin(),
                            options.sampled_defenses.end(),
                            name) != options.sampled_defenses.end();

    detect::DefenseContext ctx;
    ctx.honest_seeds = scenario.honest_seeds;
    if (run.sampled) ctx.eval_nodes = scenario.eval_sample;

    const auto start = std::chrono::steady_clock::now();
    const std::vector<double> scores = defense->score(scenario.g, ctx);
    const auto stop = std::chrono::steady_clock::now();
    run.millis =
        std::chrono::duration<double, std::milli>(stop - start).count();

    run.metrics = detect::evaluate_scores(
        scores, scenario.is_sybil,
        run.sampled ? std::span<const graph::NodeId>(scenario.eval_sample)
                    : std::span<const graph::NodeId>{});
    runs.push_back(std::move(run));
  }
  return runs;
}

void print_battery(const DefenseScenario& scenario,
                   const std::vector<DefenseRun>& runs) {
  std::printf("\n--- %s: %u nodes, %llu edges ---\n", scenario.name.c_str(),
              scenario.g.node_count(),
              static_cast<unsigned long long>(scenario.g.edge_count()));
  std::printf("%-18s %-7s %-11s %8s %14s %15s\n", "defense", "det", "scope",
              "AUC", "sybil rejected", "honest rejected");
  for (const DefenseRun& run : runs) {
    char scope[24];
    if (run.sampled) {
      std::snprintf(scope, sizeof(scope), "sample-%zu",
                    scenario.eval_sample.size());
    } else {
      std::snprintf(scope, sizeof(scope), "all");
    }
    std::printf("%-18s %-7s %-11s %8.3f %13.1f%% %14.1f%%\n",
                run.defense.c_str(),
                std::string(detect::to_string(run.determinism)).c_str(), scope,
                run.metrics.auc, 100.0 * run.metrics.sybil_rejection,
                100.0 * run.metrics.honest_rejection);
  }
  // Wall-clock block: comment lines, and suppressible, so the metric
  // rows above stay byte-identical across machines and thread counts.
  const char* timing_env = std::getenv("SYBIL_BENCH_TIMING");
  if (timing_env == nullptr || std::strcmp(timing_env, "off") != 0) {
    std::printf("# timing (wall-clock ms; not byte-stable):\n");
    for (const DefenseRun& run : runs) {
      std::printf("# timing: %-18s %10.1f\n", run.defense.c_str(), run.millis);
    }
  }
  print_metrics_block();
}

namespace {

/// Precision/recall of a flag set against ground-truth labels.
void score_flags(const core::FlagBatch& flags,
                 const std::vector<bool>& is_sybil, std::size_t& count,
                 double& precision, double& recall) {
  std::size_t true_pos = 0;
  for (const core::FlagRecord& r : flags.records) {
    if (r.account < is_sybil.size() && is_sybil[r.account]) ++true_pos;
  }
  std::size_t sybils = 0;
  for (const bool b : is_sybil) sybils += b ? 1 : 0;
  count = flags.size();
  precision = count == 0 ? 1.0 : static_cast<double>(true_pos) / count;
  recall = sybils == 0 ? 1.0 : static_cast<double>(true_pos) / sybils;
}

}  // namespace

ChaosRun run_chaos(const osn::EventLog& log,
                   const std::vector<bool>& is_sybil,
                   const core::DetectorOptions& options,
                   const faults::FaultRates& rates) {
  SYBIL_METRIC_SCOPED_TIMER(span, "bench.run_chaos");
  ChaosRun run;
  // The watermark must absorb the log's own inversions (responses are
  // logged behind later sends) plus whatever skew the injector adds —
  // twice over, because a duplicate's redelivery delay compounds on its
  // original's reorder delay.
  core::DetectorOptions opts = options;
  opts.ingest.watermark_hours =
      log.max_inversion_hours() + 2.0 * rates.max_skew_hours;
  run.watermark_hours = opts.ingest.watermark_hours;

  core::StreamDetector clean(opts);
  const auto& events = log.events();
  for (std::size_t i = 0; i < events.size(); ++i) clean.ingest(events[i], i);
  clean.finish();
  if (clean.deadletter_total() != 0) {
    throw std::logic_error(
        "run_chaos: clean pass quarantined events — watermark too small "
        "or log malformed");
  }
  const core::FlagBatch clean_flags = clean.take_flagged();
  score_flags(clean_flags, is_sybil, run.clean_flagged, run.clean_precision,
              run.clean_recall);

  faults::FaultInjector injector(rates);
  const std::vector<faults::Arrival> arrivals = injector.corrupt(log);
  run.report = injector.report();

  core::StreamDetector faulted(opts);
  for (const faults::Arrival& a : arrivals) faulted.ingest(a.event, a.seq);
  faulted.finish();
  const core::FlagBatch faulted_flags = faulted.take_flagged();
  score_flags(faulted_flags, is_sybil, run.faulted_flagged,
              run.faulted_precision, run.faulted_recall);
  run.applied = faulted.applied_total();
  run.deduped = faulted.deduped_total();
  run.deadlettered = faulted.deadletter_total();
  run.banned_party = faulted.banned_party_total();
  return run;
}

void print_chaos(const ChaosRun& run) {
  std::printf(
      "\n--- CHAOS (clean vs faulted ingestion, watermark %.1f h) ---\n",
      run.watermark_hours);
  std::printf(
      "# faults: in=%llu out=%llu dropped=%llu reordered=%llu "
      "duplicated=%llu regressed=%llu malformed=%llu banned_party=%llu\n",
      static_cast<unsigned long long>(run.report.events_in),
      static_cast<unsigned long long>(run.report.events_out),
      static_cast<unsigned long long>(run.report.dropped),
      static_cast<unsigned long long>(run.report.reordered),
      static_cast<unsigned long long>(run.report.duplicated),
      static_cast<unsigned long long>(run.report.regressed),
      static_cast<unsigned long long>(run.report.malformed),
      static_cast<unsigned long long>(run.report.banned_party_injected));
  std::printf(
      "# ingest: applied=%llu deduped=%llu deadletter=%llu "
      "banned_party=%llu\n",
      static_cast<unsigned long long>(run.applied),
      static_cast<unsigned long long>(run.deduped),
      static_cast<unsigned long long>(run.deadlettered),
      static_cast<unsigned long long>(run.banned_party));
  std::printf("%-8s %10s %10s %8s\n", "pass", "flagged", "precision",
              "recall");
  std::printf("%-8s %10zu %10.3f %8.3f\n", "clean", run.clean_flagged,
              run.clean_precision, run.clean_recall);
  std::printf("%-8s %10zu %10.3f %8.3f\n", "faulted", run.faulted_flagged,
              run.faulted_precision, run.faulted_recall);
  std::printf("%-8s %10lld %10.3f %8.3f\n", "delta",
              static_cast<long long>(run.faulted_flagged) -
                  static_cast<long long>(run.clean_flagged),
              run.faulted_precision - run.clean_precision,
              run.faulted_recall - run.clean_recall);
}

CrashRecoveryRun run_crash_recovery(const osn::EventLog& log,
                                    const std::vector<bool>& is_sybil,
                                    const core::DetectorOptions& options,
                                    std::uint64_t crash_every,
                                    std::uint64_t shards) {
  SYBIL_METRIC_SCOPED_TIMER(span, "bench.run_crash_recovery");
  if (crash_every == 0) {
    throw std::invalid_argument("run_crash_recovery: crash_every must be >= 1");
  }
  if (shards == 0) {
    throw std::invalid_argument("run_crash_recovery: shards must be >= 1");
  }
  namespace fs = std::filesystem;
  const auto& events = log.events();
  CrashRecoveryRun run;
  run.crash_every = crash_every;
  run.shards = shards;
  run.events = events.size();

  core::DetectorOptions opts = options;
  opts.ingest.watermark_hours = log.max_inversion_hours();
  // The comparison pins verdict equality, so neither pass may shed:
  // shedding decisions depend on the pump schedule, which a crash
  // legitimately perturbs. Both passes pump continuously instead.
  opts.overload.queue_capacity = events.size() + 2;
  opts.overload.sweep_only_watermark = events.size() + 1;
  opts.overload.shed_watermark = events.size() + 1;
  opts.overload.resume_watermark = 0;

  service::ServiceOptions service_opts;
  service_opts.detector = opts;
  service_opts.wal_fsync = service::WalFsync::kNever;  // throwaway state
  // Deliberately misaligned with crash_every so crashes land between
  // checkpoints and every recovery exercises real WAL-suffix replay.
  service_opts.checkpoint_every = crash_every / 2 + 1;
  // A root of its own per call (process id and a per-process counter),
  // removed however the call ends: concurrent runs, in one process or
  // several, never share or delete each other's state.
  static std::atomic<std::uint64_t> runs{0};
  const std::string root =
      (fs::temp_directory_path() /
       ("sybil_bench_crash-" + std::to_string(::getpid()) + "-" +
        std::to_string(runs.fetch_add(1))))
          .string();
  fs::remove_all(root);
  struct RemoveOnExit {
    const std::string& dir;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } remove_on_exit{root};

  // Both passes run through an N-way router (one shard is the
  // standalone service), every kill takes the whole fleet down, and
  // each recovery resumes from the min-frontier across shards
  // (redelivered copies below a shard's own frontier are suppressed,
  // so per-shard WALs stay exactly-once).
  service::ShardRouterOptions router_opts;
  router_opts.shard = service_opts;
  router_opts.shards = static_cast<std::uint32_t>(shards);
  {
    router_opts.shard.dir = root + "/clean";
    service::ShardRouter clean(router_opts);
    clean.start();
    for (std::uint64_t i = 0; i < events.size(); ++i) {
      clean.offer(events[i], i);
      if (i % 1024 == 1023) clean.pump();
    }
    clean.flush();
    score_flags(clean.take_flagged(), is_sybil, run.clean_flagged,
                run.clean_precision, run.clean_recall);
  }

  router_opts.shard.dir = root + "/crash";
  std::uint64_t next = 0;
  bool finished = false;
  while (!finished) {
    // A fresh router per life: the previous one was dropped with no
    // flush and no warning — the WALs + checkpoints are all that's left.
    service::ShardRouter s(router_opts);
    const auto t0 = std::chrono::steady_clock::now();
    const service::RouterRecoveryReport report = s.start();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (next != 0) {  // the first start is a cold boot, not a recovery
      run.recovery_total_ms += ms;
      run.recovery_max_ms = std::max(run.recovery_max_ms, ms);
      for (const auto& shard_report : report.shards) {
        run.records_replayed += shard_report.records_replayed;
      }
    }
    next = report.next_seq;
    const std::uint64_t stop =
        std::min<std::uint64_t>(events.size(), next + crash_every);
    for (; next < stop; ++next) {
      s.offer(events[next], next);
      if (next % 1024 == 1023) s.pump();
    }
    if (stop == events.size()) {
      s.flush();
      score_flags(s.take_flagged(), is_sybil, run.recovered_flagged,
                  run.recovered_precision, run.recovered_recall);
      finished = true;
    } else {
      ++run.crashes;
    }
  }

  if (run.recovered_flagged != run.clean_flagged ||
      run.recovered_precision != run.clean_precision ||
      run.recovered_recall != run.clean_recall) {
    throw std::logic_error(
        "run_crash_recovery: recovered verdicts differ from the "
        "uninterrupted run — exactly-once recovery is broken");
  }
  return run;
}

void print_crash_recovery(const CrashRecoveryRun& run) {
  std::printf(
      "\n--- CRASH RECOVERY (kill + recover every %llu events, %llu "
      "shard%s) ---\n",
      static_cast<unsigned long long>(run.crash_every),
      static_cast<unsigned long long>(run.shards),
      run.shards == 1 ? "" : "s");
  std::printf("# service: events=%llu crashes=%llu wal_replayed=%llu\n",
              static_cast<unsigned long long>(run.events),
              static_cast<unsigned long long>(run.crashes),
              static_cast<unsigned long long>(run.records_replayed));
  const char* timing_env = std::getenv("SYBIL_BENCH_TIMING");
  if ((timing_env == nullptr || std::strcmp(timing_env, "off") != 0) &&
      run.crashes > 0) {
    std::printf(
        "# timing: %llu recoveries in %.1f ms (mean %.2f ms, max %.2f "
        "ms)\n",
        static_cast<unsigned long long>(run.crashes),
        run.recovery_total_ms,
        run.recovery_total_ms / static_cast<double>(run.crashes),
        run.recovery_max_ms);
  }
  std::printf("%-10s %10s %10s %8s\n", "pass", "flagged", "precision",
              "recall");
  std::printf("%-10s %10zu %10.3f %8.3f\n", "clean", run.clean_flagged,
              run.clean_precision, run.clean_recall);
  std::printf("%-10s %10zu %10.3f %8.3f\n", "recovered",
              run.recovered_flagged, run.recovered_precision,
              run.recovered_recall);
  std::printf("%-10s %10lld %10.3f %8.3f\n", "delta",
              static_cast<long long>(run.recovered_flagged) -
                  static_cast<long long>(run.clean_flagged),
              run.recovered_precision - run.clean_precision,
              run.recovered_recall - run.clean_recall);
}

void print_metrics_block() {
#if SYBIL_METRICS_COMPILED
  // Observability dump as comment lines only: measurement rows above
  // stay byte-identical whether metrics are on (extra # lines) or off
  // via SYBIL_METRICS=off (no lines at all). Wall-clock fields are
  // excluded so even the # metrics lines are byte-stable across
  // SYBIL_THREADS — wall-clock belongs to the # timing block.
  if (!core::metrics::metrics_enabled()) return;
  const std::string text = core::metrics::MetricsRegistry::instance().to_text(
      /*include_wallclock=*/false);
  std::printf("# metrics (SYBIL_METRICS=off to suppress):\n");
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::printf("# metrics: %.*s\n", static_cast<int>(end - start),
                text.c_str() + start);
    start = end + 1;
  }
#endif
}

}  // namespace sybil::bench
