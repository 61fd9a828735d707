// ChaosOrchestrator: drives the sharded service through a
// ScenarioManifest — traffic shapes, fault windows, shard kills with
// recovery under fire, overload phases — deterministically, with the
// accounting identities asserted at every step and (for identity-
// expected manifests) the final FlagBatch and per-shard stats byte-
// identical to an undisturbed run of the same manifest.
//
// The determinism protocol (docs/ROBUSTNESS.md §Scenario harness):
//
//   Boundary schedule. The manifest's phases compile to a list of
//   *boundary points* in global-seq space (every pump_interval multiple
//   within a phase, plus the phase end). At boundary s the orchestrator
//   pumps each shard through seq s-1 (ServiceSupervisor::pump_through —
//   idempotent at a fixed bound), optionally sweeps at the clean time
//   of event s-1, and checkpoints. The schedule is a pure function of
//   the manifest, so disturbed and undisturbed runs fire byte-identical
//   boundary sequences — which is why admission verdicts (a function of
//   queue depth, i.e. of the pump schedule) align across runs.
//
//   Kills. Every shard writes through its own io::FaultyVfs; a KillSpec
//   arms a process crash at one of the victim's storage ops, so the
//   victim dies mid-offer (or mid-checkpoint) with a typed
//   VfsError(kProcessCrash). The orchestrator marks it down
//   (ShardRouter::mark_down, while the device is still dead, so
//   buffered WAL bytes die with the process), reboots its vfs,
//   immediately re-offers the interrupted (event, seq) so surviving
//   shards past the victim still receive it (the min-frontier
//   contract), and keeps offering live traffic to the survivors.
//   After down_for further
//   events it restarts the shard (WAL replay + checkpoint load), fires
//   the boundaries the recovered state proves it missed — the count of
//   durable sweeps tells it exactly which sweep boundary the state is
//   at, and pump/checkpoint re-fires are idempotent — then rewinds the
//   arrival cursor to the shard's redelivery frontier and re-walks:
//   live shards suppress every re-offered copy, the victim replays its
//   exact undisturbed admission trajectory.
//
//   Identity checks. router.accounting_ok() (per-shard identity +
//   cross-shard copies identity + frontier consistency) is asserted
//   after every arrival and every boundary; failures are counted, never
//   masked.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/manifest.h"
#include "core/detector.h"
#include "faults/fault_schedule.h"
#include "service/router.h"

namespace sybil::chaos {

struct ChaosRunOptions {
  /// Service state root for this run. WIPED (remove_all) at run start —
  /// a scenario is a from-scratch reproduction, not a resume.
  std::string dir;
  /// False strips fault windows and kills (the control run). The
  /// boundary schedule and traffic shape are unchanged.
  bool disturbed = true;
};

/// Per-phase slice of the run report (CLI `--scenario` prints these).
struct PhaseReport {
  std::string name;
  std::uint64_t first_event = 0;
  std::uint64_t until_event = 0;
  /// Arrivals offered while the head was in this phase — includes
  /// window duplicates and post-restart re-offers, so it can exceed
  /// until_event - first_event.
  std::uint64_t arrivals = 0;
  std::uint64_t boundaries = 0;  // global boundary fires
  std::uint64_t sweeps = 0;      // ...of which ran a flag sweep
  std::uint64_t kills = 0;
  std::uint64_t recoveries = 0;
  /// Fleet tier-transition delta across the phase (live shards at the
  /// phase edges; best-effort while a shard is down).
  std::uint64_t tier_transitions = 0;
  std::uint64_t identity_checks = 0;
  std::uint64_t identity_failures = 0;
};

struct ScenarioOutcome {
  std::vector<PhaseReport> phases;
  /// What the fault windows injected (disturbed runs only).
  faults::FaultScheduleReport faults;
  std::uint64_t arrivals_total = 0;
  std::uint64_t kills = 0;
  std::uint64_t recoveries = 0;
  /// at_boundary kills whose op never arrived (disarmed at end).
  std::uint64_t kills_missed = 0;
  std::uint64_t identity_checks = 0;
  std::uint64_t identity_failures = 0;
  std::uint64_t copies_skipped_down = 0;
  // [disk] execution (disturbed runs only).
  std::uint64_t disk_windows = 0;         // windows armed
  std::uint64_t disk_windows_missed = 0;  // ranges passed while deferred
  std::uint64_t power_cuts = 0;           // power-loss cuts fired
  std::uint64_t storage_degraded = 0;     // shards seen storage-degraded
  std::uint64_t storage_recoveries = 0;   // degraded exits forced at close
  /// Mutating storage ops per shard over the whole run — the at_boundary
  /// index space (the kill-at-every-op sweeps learn it here).
  std::vector<std::uint64_t> boundary_crossings;
  /// Owner-merged final flags and the stats the identity contract pins.
  core::FlagBatch flags;
  std::vector<std::string> shard_stats;
  std::string router_stats;
};

class ChaosOrchestrator {
 public:
  /// Validates the manifest once up front.
  explicit ChaosOrchestrator(ScenarioManifest manifest);

  /// Executes the scenario. Throws only on harness bugs (state-dir I/O
  /// failures, manifest/stream mismatch); injected faults and identity
  /// failures are reported in the outcome, not thrown.
  ScenarioOutcome run(const ChaosRunOptions& options);

  const ScenarioManifest& manifest() const noexcept { return manifest_; }

 private:
  ScenarioManifest manifest_;
};

/// Byte-identity verdict between a disturbed run and its control.
struct IdentityVerdict {
  bool flags_identical = false;
  bool stats_identical = false;
  bool accounting_held = false;
  bool ok() const noexcept {
    return flags_identical && stats_identical && accounting_held;
  }
};

/// Field-exact FlagBatch comparison (account, flag time, features,
/// defense annotations).
bool flags_equal(const core::FlagBatch& a, const core::FlagBatch& b);

/// Runs `manifest` disturbed under <dir>/disturbed and undisturbed
/// under <dir>/undisturbed, then compares final flags + per-shard
/// stats. `disturbed`/`undisturbed` receive the outcomes when non-null.
IdentityVerdict verify_identity(const ScenarioManifest& manifest,
                                const std::string& dir,
                                ScenarioOutcome* disturbed = nullptr,
                                ScenarioOutcome* undisturbed = nullptr);

}  // namespace sybil::chaos
