// Scenario manifests: declarative, serializable chaos schedules for
// the sharded detection service (docs/ROBUSTNESS.md §Scenario harness,
// docs/FORMATS.md §9 for the text format).
//
// A ScenarioManifest composes, over one synthetic workload:
//
//   - a traffic shape (service::WorkloadOptions — diurnal curve, flash
//     crowds, registration storms);
//   - service geometry (shard count, WAL/checkpoint knobs, the
//     overload watermarks that define the shed tiers);
//   - phases: a partition of the stream into [prev_until, until_event)
//     ranges, each fixing the pump cadence and whether a flag sweep
//     runs at the phase end — together these define the deterministic
//     *boundary schedule* the orchestrator replays identically in
//     disturbed and undisturbed runs;
//   - fault windows: faults::FaultWindow rate ramps over event ranges
//     (transport-level chaos);
//   - kills: timed shard deaths (a process crash at one of the shard's
//     io::FaultyVfs storage ops) with a downtime budget, after which
//     the orchestrator restarts the shard and re-drives it — recovery
//     under fire.
//
// The identity contract: a manifest whose fault windows are duplicate-
// only (identity_expected()) must produce a final owner-merged
// FlagBatch and per-shard stats byte-identical to undisturbed() — the
// same manifest with windows and kills stripped. Two rate knobs are
// rejected outright at this layer because they break seq-addressed
// routing, not just identity: `reorder` (an out-of-order offer below an
// already-advanced frontier would be wrongly suppressed — silent loss)
// and `banned_party` (synthesized seqs at FaultInjector::kSynthSeqBase
// are *explicit* to a router and would poison the frontier math).
// Reorder/late-ban chaos stays covered at the detector layer
// (tests/faults); drop/regress/malform are accepted here but clear
// identity_expected().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector_options.h"
#include "faults/fault_schedule.h"
#include "service/wal.h"
#include "service/workload.h"

namespace sybil::chaos {

/// One stream range with a fixed operational cadence. The orchestrator
/// pumps (and checkpoints) at every multiple of `pump_interval` from
/// the phase start, and always at `until_event`; `sweep` adds a flag
/// sweep at the phase-end boundary, stamped with the last clean event
/// time before it.
struct PhaseSpec {
  std::string name = "phase";
  std::uint64_t until_event = 0;  // exclusive end; strictly increasing
  std::uint64_t pump_interval = 64;
  bool sweep = false;
};

/// One timed shard death — a process crash at a storage op. Exactly
/// one trigger:
///   at_event     — arm when the head of the stream reaches this seq;
///                  the shard dies at its next storage op.
///   at_boundary  — arm immediately; the shard dies at this 0-based
///                  mutating op of its io::FaultyVfs (absolute,
///                  counted from the run's start — the kill-at-every-
///                  op sweeps iterate this number).
/// After `down_for` further fresh events the orchestrator restarts the
/// shard (or at end of stream, whichever comes first).
struct KillSpec {
  std::uint32_t shard = 0;
  std::uint64_t at_event = 0;
  std::uint64_t at_boundary = 0;
  bool use_boundary = false;
  std::uint64_t down_for = 1;
};

/// One shard-addressed disk-fault window ([disk] section): while the
/// head of the stream is in [from_event, to_event), the named shard's
/// storage (its io::FaultyVfs) rejects writes with the given kind. The
/// shard rides the window in storage-degraded mode — verdicts from
/// memory, WAL appends buffered, checkpoints suspended — and the
/// orchestrator closes the window by clearing the fault and forcing a
/// retry, which flushes the backlog. kPowerLoss instead cuts the
/// shard's "disk" at its next write/fsync (unsynced bytes lost or torn
/// per `seed`), and the orchestrator treats it like a kill: restart,
/// recover, re-drive. Windows never break the identity contract.
struct DiskFaultSpec {
  enum class Kind : std::uint32_t {
    kNoSpace = 0,   // ENOSPC on every write
    kIoError = 1,   // EIO on every write
    kPowerLoss = 2  // power cut at the next write/fsync in the window
  };
  std::uint32_t shard = 0;
  Kind kind = Kind::kNoSpace;
  std::uint64_t from_event = 0;  // arm when the head reaches this seq
  std::uint64_t to_event = 0;    // exclusive; fault cleared here
  std::uint64_t seed = 0;        // power-loss tear determinism
};

struct ScenarioManifest {
  std::string name = "scenario";

  // [workload]
  service::WorkloadOptions workload{};

  // [service]
  std::uint32_t shards = 1;
  service::WalFsync fsync = service::WalFsync::kNever;
  std::uint64_t wal_segment_records = 4096;
  std::size_t checkpoint_retain = 2;
  core::OverloadOptions overload{};
  /// Threshold-rule relaxation so the synthetic burst senders cross it
  /// (same defaults as the sybil_service CLI driver).
  double invite_rate_min = 4.0;
  double outgoing_accept_max = 0.5;
  std::uint32_t min_requests = 5;

  std::vector<PhaseSpec> phases;
  std::vector<faults::FaultWindow> fault_windows;
  std::vector<KillSpec> kills;
  std::vector<DiskFaultSpec> disk_faults;

  /// Throws std::invalid_argument naming the offending field. Requires
  /// at least one phase, phases ending exactly at workload.events, and
  /// rejects reorder/banned_party fault rates (header comment).
  void validate() const;

  /// True when every fault window is duplicate-only, i.e. the final
  /// FlagBatch and per-shard stats are contractually byte-identical to
  /// the undisturbed run. Kills never break identity — that is the
  /// point of the harness.
  bool identity_expected() const;

  /// The control run: same traffic shape, geometry and phases, no
  /// fault windows, no kills, no disk faults.
  ScenarioManifest undisturbed() const;

  /// The DetectorOptions every shard runs with (rule relaxation +
  /// overload watermarks applied over defaults).
  core::DetectorOptions detector_options() const;

  /// Canonical text form (docs/FORMATS.md §9). parse_manifest() of the
  /// result reproduces this manifest exactly.
  std::string serialize() const;
};

/// Parses the text format. Throws std::invalid_argument with a line
/// number on malformed input; the result has been validate()d.
ScenarioManifest parse_manifest(const std::string& text);

/// Reads and parses a manifest file. Throws std::runtime_error if the
/// file cannot be read.
ScenarioManifest load_manifest(const std::string& path);

}  // namespace sybil::chaos
