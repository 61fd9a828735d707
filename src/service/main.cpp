// Operator CLI for the sharded detection service.
//
// Drives a deterministic synthetic population (service/workload.h)
// through a ShardRouter and reports the router accounting JSON plus a
// canonical digest of the owner-merged FlagBatch. With --verify-single
// it runs the same stream through N shards and through 1 shard and
// fails unless the merged FlagBatches are byte-identical — the sharded
// architecture's acceptance check, executable at any population size:
//
//   SYBIL_IO_FSYNC=0 sybil_service --shards 8 --accounts 5000000
//     --events 6000000 --fsync never --checkpoint-every 0
//     --no-final-checkpoint --verify-single   (one line)
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/manifest.h"
#include "chaos/orchestrator.h"
#include "core/detector.h"
#include "service/router.h"
#include "service/workload.h"

namespace {

using namespace sybil;

/// printf format of the usage text; usage() fills in the defaults.
constexpr const char kUsage[] = R"(usage: sybil_service [options]

Sharded detection service driver (synthetic workload).

options:
  --shards N            shard count (default 1)
  --dir PATH            state root (default: ./sybil-service-state)
  --accounts M          population size (default 2000)
  --events E            stream length (default 20000)
  --seed S              workload seed (default 1)
  --hours H             stream span in simulated hours (default 96)
  --burst-senders K     sybil-like hot senders (default 8)
  --fsync MODE          WAL durability: always|never (default always)
  --segment-records R   WAL records per segment (default %llu)
  --checkpoint-every C  grid of positions where a generation may be cut;
                        0 = explicit only (default %llu)
  --no-final-checkpoint skip the checkpoint inside the final flush
  --verify-single       run N shards then 1 shard; fail unless the merged
                        FlagBatches are byte-identical
  --scenario PATH       run a chaos scenario manifest (docs/FORMATS.md §9)
                        instead of the plain workload: prints a per-phase
                        report and, when the manifest is identity-expected,
                        verifies the final flags against an undisturbed run
  --stats               print the full router stats JSON
  --help                this text

Checkpoint fsync honours the SYBIL_IO_FSYNC env knob; set it to 0 for
throwaway state directories.
)";

struct CliOptions {
  std::uint32_t shards = 1;
  std::string dir = "./sybil-service-state";
  service::WorkloadOptions workload{};
  service::WalFsync fsync = service::WalFsync::kEveryAppend;
  std::uint64_t segment_records = service::ServiceOptions{}.wal_segment_records;
  std::uint64_t checkpoint_every = service::ServiceOptions{}.checkpoint_every;
  bool final_checkpoint = true;
  bool verify_single = false;
  bool stats = false;
};

/// The usage text, with the service library's defaults.
std::string usage() {
  const CliOptions defaults;
  char text[sizeof(kUsage) + 64];
  std::snprintf(text, sizeof(text), kUsage,
                static_cast<unsigned long long>(defaults.segment_records),
                static_cast<unsigned long long>(defaults.checkpoint_every));
  return text;
}

/// The operator-facing failure: one error line, the usage text, exit 2.
[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "sybil_service: %s\n%s", what.c_str(),
               usage().c_str());
  std::exit(2);
}

/// Strict unsigned parse of `flag`'s value in [min, max]: digits only,
/// no sign, no trailing bytes, no overflow.
std::uint64_t parse_count(const char* flag, const std::string& text,
                          std::uint64_t min,
                          std::uint64_t max =
                              std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || at != end) {
    usage_error(std::string(flag) + " expects an unsigned integer, got '" +
                text + "'");
  }
  if (v < min || v > max) {
    usage_error(std::string(flag) + " must be in [" + std::to_string(min) +
                ", " + std::to_string(max) + "], got " + text);
  }
  return v;
}

/// Strict parse of a positive, finite real value of `flag`.
double parse_positive(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(v) || !(v > 0.0)) {
    usage_error(std::string(flag) + " expects a positive finite number, got '" +
                text + "'");
  }
  return v;
}

/// Removes `flag` (with `values` following operands) from argv; returns
/// the operands or empty when the flag is absent.
std::vector<std::string> take_flag(int& argc, char** argv, const char* flag,
                                   int values) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + values >= argc) {
      usage_error(std::string(flag) + " needs " + std::to_string(values) +
                  " value(s)");
    }
    std::vector<std::string> out;
    for (int v = 1; v <= values; ++v) out.emplace_back(argv[i + v]);
    for (int j = i; j + values + 1 <= argc; ++j) argv[j] = argv[j + values + 1];
    argc -= values + 1;
    return out.empty() ? std::vector<std::string>{""} : out;
  }
  return {};
}

/// Threshold rule the synthetic burst senders are designed to cross
/// (the tests use the same relaxation; production rules come from
/// config, not from this driver).
core::DetectorOptions detector_options() {
  core::DetectorOptions d;
  d.rule.invite_rate_min = 4.0;
  d.rule.outgoing_accept_max = 0.5;
  d.rule.min_requests = 5;
  return d;
}

service::ShardRouterOptions router_options(const CliOptions& cli,
                                           std::uint32_t shards,
                                           const std::string& dir) {
  service::ShardRouterOptions o;
  o.shards = shards;
  o.shard.detector = detector_options();
  o.shard.dir = dir;
  o.shard.wal_fsync = cli.fsync;
  o.shard.wal_segment_records = cli.segment_records;
  o.shard.checkpoint_every = cli.checkpoint_every;
  return o;
}

/// FNV-1a over the canonical byte layout of a merged FlagBatch, so two
/// runs (any shard count, any machine) can be compared from logs alone.
std::uint64_t flag_digest(const core::FlagBatch& batch) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const core::FlagRecord& r : batch.records) {
    mix(&r.account, sizeof(r.account));
    mix(&r.flagged_at, sizeof(r.flagged_at));
    const auto f = r.features.as_vector();
    mix(f.data(), f.size() * sizeof(double));
  }
  return h;
}

struct RunResult {
  core::FlagBatch flags;
  std::string stats;
};

RunResult run_once(const CliOptions& cli,
                   const std::vector<osn::Event>& events,
                   std::uint32_t shards, const std::string& dir) {
  service::ShardRouter router(router_options(cli, shards, dir));
  router.start();
  // Same trajectory as offering one event at a time with a pump every
  // 1024, but each batch group-commits the per-shard WAL appends (one
  // fsync per touched shard per batch) and the pump drains all shards
  // in parallel.
  const std::span<const osn::Event> all(events);
  for (std::uint64_t base = 0; base < all.size(); base += 1024) {
    const std::size_t n = std::min<std::size_t>(1024, all.size() - base);
    router.offer_batch(all.subspan(base, n), base);
    router.pump();
  }
  router.flush(cli.final_checkpoint);
  router.sweep_flags(cli.workload.hours + 1.0);
  if (!router.accounting_ok()) {
    std::fprintf(stderr, "sybil_service: accounting identity violated\n");
    std::exit(1);
  }
  RunResult result;
  result.flags = router.take_flagged();
  result.stats = router.stats_json();
  return result;
}

/// `--scenario` mode: run the manifest, print the per-phase report, and
/// (when the manifest promises it) verify byte-identity against the
/// undisturbed control run. Returns the process exit code.
int run_scenario(const std::string& path, const std::string& dir,
                 bool print_stats) {
  chaos::ScenarioManifest manifest = chaos::load_manifest(path);
  const bool identity = manifest.identity_expected();
  std::printf("scenario: %s  (events=%llu shards=%u phases=%zu faults=%zu "
              "kills=%zu disk=%zu identity=%s)\n",
              manifest.name.c_str(),
              static_cast<unsigned long long>(manifest.workload.events),
              manifest.shards, manifest.phases.size(),
              manifest.fault_windows.size(), manifest.kills.size(),
              manifest.disk_faults.size(),
              identity ? "expected" : "not-expected");

  chaos::ScenarioOutcome outcome;
  bool ok = true;
  if (identity) {
    const chaos::IdentityVerdict verdict =
        chaos::verify_identity(manifest, dir, &outcome);
    ok = verdict.ok();
    std::printf("identity: flags %s  shard-stats %s  accounting %s\n",
                verdict.flags_identical ? "==" : "!=",
                verdict.stats_identical ? "==" : "!=",
                verdict.accounting_held ? "held" : "VIOLATED");
  } else {
    chaos::ChaosRunOptions run;
    run.dir = dir + "/disturbed";
    chaos::ChaosOrchestrator orchestrator(std::move(manifest));
    outcome = orchestrator.run(run);
    ok = outcome.identity_failures == 0;
  }

  for (const chaos::PhaseReport& p : outcome.phases) {
    std::printf("phase %-12s [%6llu,%6llu)  arrivals=%-7llu boundaries=%-5llu "
                "sweeps=%-3llu kills=%llu recoveries=%llu tier-transitions=%llu "
                "identity=%llu/%llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.first_event),
                static_cast<unsigned long long>(p.until_event),
                static_cast<unsigned long long>(p.arrivals),
                static_cast<unsigned long long>(p.boundaries),
                static_cast<unsigned long long>(p.sweeps),
                static_cast<unsigned long long>(p.kills),
                static_cast<unsigned long long>(p.recoveries),
                static_cast<unsigned long long>(p.tier_transitions),
                static_cast<unsigned long long>(p.identity_checks -
                                                p.identity_failures),
                static_cast<unsigned long long>(p.identity_checks));
  }
  std::printf("faults: arrivals=%llu dropped=%llu duplicated=%llu "
              "regressed=%llu malformed=%llu\n",
              static_cast<unsigned long long>(outcome.faults.total.events_out),
              static_cast<unsigned long long>(outcome.faults.total.dropped),
              static_cast<unsigned long long>(outcome.faults.total.duplicated),
              static_cast<unsigned long long>(outcome.faults.total.regressed),
              static_cast<unsigned long long>(outcome.faults.total.malformed));
  std::printf("kills: fired=%llu recovered=%llu missed=%llu  "
              "copies-skipped-down=%llu\n",
              static_cast<unsigned long long>(outcome.kills),
              static_cast<unsigned long long>(outcome.recoveries),
              static_cast<unsigned long long>(outcome.kills_missed),
              static_cast<unsigned long long>(outcome.copies_skipped_down));
  std::printf("disk: windows=%llu missed=%llu power-cuts=%llu "
              "storage-degraded=%llu recovered=%llu\n",
              static_cast<unsigned long long>(outcome.disk_windows),
              static_cast<unsigned long long>(outcome.disk_windows_missed),
              static_cast<unsigned long long>(outcome.power_cuts),
              static_cast<unsigned long long>(outcome.storage_degraded),
              static_cast<unsigned long long>(outcome.storage_recoveries));
  std::printf("flags: %zu  digest: %016llx  identity-checks: %llu passed, "
              "%llu failed\n",
              outcome.flags.size(),
              static_cast<unsigned long long>(flag_digest(outcome.flags)),
              static_cast<unsigned long long>(outcome.identity_checks -
                                              outcome.identity_failures),
              static_cast<unsigned long long>(outcome.identity_failures));
  if (print_stats) std::printf("%s\n", outcome.router_stats.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!take_flag(argc, argv, "--help", 0).empty()) {
    std::fputs(usage().c_str(), stdout);
    return 0;
  }
  if (const auto v = take_flag(argc, argv, "--shards", 1); !v.empty()) {
    cli.shards =
        static_cast<std::uint32_t>(parse_count("--shards", v[0], 1, 4096));
  }
  if (const auto v = take_flag(argc, argv, "--dir", 1); !v.empty()) {
    cli.dir = v[0];
  }
  if (const auto v = take_flag(argc, argv, "--accounts", 1); !v.empty()) {
    // From the workload's population floor up to the ingestion
    // account-id bound.
    cli.workload.accounts = static_cast<std::uint32_t>(
        parse_count("--accounts", v[0], 16,
                    core::DetectorOptions{}.ingest.max_account_id));
  }
  if (const auto v = take_flag(argc, argv, "--events", 1); !v.empty()) {
    cli.workload.events = parse_count("--events", v[0], 1);
  }
  if (const auto v = take_flag(argc, argv, "--seed", 1); !v.empty()) {
    cli.workload.seed = parse_count("--seed", v[0], 0);
  }
  if (const auto v = take_flag(argc, argv, "--hours", 1); !v.empty()) {
    cli.workload.hours = parse_positive("--hours", v[0]);
  }
  if (const auto v = take_flag(argc, argv, "--burst-senders", 1); !v.empty()) {
    cli.workload.burst_senders = static_cast<std::uint32_t>(
        parse_count("--burst-senders", v[0], 1,
                    std::numeric_limits<std::uint32_t>::max()));
  }
  if (const auto v = take_flag(argc, argv, "--fsync", 1); !v.empty()) {
    if (v[0] == "always") {
      cli.fsync = service::WalFsync::kEveryAppend;
    } else if (v[0] == "never") {
      cli.fsync = service::WalFsync::kNever;
    } else {
      usage_error("--fsync expects always|never, got '" + v[0] + "'");
    }
  }
  if (const auto v = take_flag(argc, argv, "--segment-records", 1);
      !v.empty()) {
    cli.segment_records = parse_count("--segment-records", v[0], 1);
  }
  if (const auto v = take_flag(argc, argv, "--checkpoint-every", 1);
      !v.empty()) {
    cli.checkpoint_every = parse_count("--checkpoint-every", v[0], 0);
  }
  if (!take_flag(argc, argv, "--no-final-checkpoint", 0).empty()) {
    cli.final_checkpoint = false;
  }
  if (!take_flag(argc, argv, "--verify-single", 0).empty()) {
    cli.verify_single = true;
  }
  std::string scenario_path;
  if (const auto v = take_flag(argc, argv, "--scenario", 1); !v.empty()) {
    scenario_path = v[0];
  }
  if (!take_flag(argc, argv, "--stats", 0).empty()) cli.stats = true;
  if (argc > 1) usage_error(std::string("unknown argument ") + argv[1]);

  // Cross-flag rules (e.g. --burst-senders below --accounts / 2) are
  // the options' own validation; they fail typed, never abort.
  if (scenario_path.empty()) {
    try {
      cli.workload.validate();
      router_options(cli, cli.shards, cli.dir).validate();
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
    }
  }

  // A refused manifest, a state root that cannot be created, a workload
  // too large to hold or a recovery refusal (say, a pruned WAL under
  // deleted checkpoints) is the operator's to fix: one typed line and
  // exit 2, never an abort.
  try {
    if (!scenario_path.empty()) {
      return run_scenario(scenario_path, cli.dir, cli.stats);
    }
    const std::vector<osn::Event> events =
        service::synthetic_workload(cli.workload);
    std::printf("workload: accounts=%u events=%zu shards=%u\n",
                cli.workload.accounts, events.size(), cli.shards);

    const RunResult sharded =
        run_once(cli, events, cli.shards,
                 cli.dir + "/n" + std::to_string(cli.shards));
    std::printf("flags: %zu  digest: %016llx\n", sharded.flags.size(),
                static_cast<unsigned long long>(flag_digest(sharded.flags)));
    if (cli.stats) std::printf("%s\n", sharded.stats.c_str());

    if (cli.verify_single && cli.shards != 1) {
      const RunResult single = run_once(cli, events, 1, cli.dir + "/n1");
      const bool ok = chaos::flags_equal(sharded.flags, single.flags);
      std::printf("verify-single: %u-shard flags %s 1-shard flags "
                  "(%zu vs %zu records)\n",
                  cli.shards, ok ? "==" : "!=", sharded.flags.size(),
                  single.flags.size());
      if (!ok) return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sybil_service: %s\n", e.what());
    return 2;
  }
  return 0;
}
