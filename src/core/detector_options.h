// The unified configuration surface of the detection pipeline.
//
// Before this header, each deployment path grew its own config struct —
// which meant three places to set the same rule and no validation
// anywhere. DetectorOptions is the one struct every detector front-end
// accepts: named-field defaults match the paper's deployment
// (Section 2.3), and validate() rejects nonsense before a detector is
// built with it.
//
// Fields a given detector does not use are simply ignored (the batch
// path ingests no events), so one options value can configure both
// halves of a deployment and guarantee they agree on the rule.
//
// Only values a deployment sets live here. What the paper's deployment
// fixes — the first-50-friends clustering prefix (core::kFirstFriends),
// quarantine-and-continue ingestion and its dead-letter bound, the
// adaptive tuner's configuration and retune cadence, the rank tier's
// ceil(log2 V) pull rounds — is a constant of the code that uses it,
// not an option.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/threshold_detector.h"
#include "graph/graph.h"

namespace sybil::core {

/// Hostile-input hardening knobs of StreamDetector::ingest, the
/// detector's one ingestion surface. A rejected event is always
/// quarantined into the dead-letter queue with a reason code, and
/// ingestion keeps going (docs/ROBUSTNESS.md).
struct IngestOptions {
  /// Reorder tolerance: an event may arrive up to this many hours of
  /// event time behind the newest event seen and still be slotted into
  /// its correct position; anything older is quarantined as
  /// kTimeRegression. 0 applies events immediately in arrival order.
  double watermark_hours = 48.0;

  /// Largest account id the ingestion path will allocate state for.
  /// A hostile id above this is quarantined as kInvalidAccountId
  /// instead of forcing a multi-gigabyte vector resize.
  std::uint32_t max_account_id = (1u << 24) - 1;
};

/// Degradation tier of the supervised detection service
/// (service::ServiceSupervisor). Ordered by severity; transitions are
/// driven by ingest-queue depth watermarks (see OverloadOptions).
enum class ServiceTier : std::uint32_t {
  /// Every admissible event kind is accepted.
  kFull = 0,
  /// Low-priority event kinds (account creations, dropped requests,
  /// seeded friendships) are shed; the request/accept/reject/ban flow
  /// that drives the threshold features still lands.
  kShedLowPriority = 1,
  /// Flag-sweep-only: everything except bans is shed. The detector
  /// keeps its existing state current against bans and keeps emitting
  /// flags from periodic sweeps, but ingests no new feature evidence.
  kSweepOnly = 2,
};

constexpr const char* to_string(ServiceTier tier) noexcept {
  switch (tier) {
    case ServiceTier::kFull: return "full";
    case ServiceTier::kShedLowPriority: return "shed-low-priority";
    case ServiceTier::kSweepOnly: return "sweep-only";
  }
  return "unknown";
}

/// Overload-control knobs of the supervised service: a bounded ingest
/// queue with watermark-based tier transitions (hysteresis: the service
/// degrades at the shed/sweep-only watermarks and recovers only once
/// the queue has drained to the resume watermark, so a load spike does
/// not make the tier flap). Ban events are never shed at any tier or
/// depth — a ban that fails to apply would corrupt verdicts.
struct OverloadOptions {
  /// Hard bound on queued events; beyond it every non-ban event is
  /// shed regardless of tier.
  std::size_t queue_capacity = 8192;
  /// Queue depth at or above which the service enters
  /// ServiceTier::kShedLowPriority.
  std::size_t shed_watermark = 4096;
  /// Queue depth at or above which the service enters
  /// ServiceTier::kSweepOnly.
  std::size_t sweep_only_watermark = 6144;
  /// Queue depth at or below which a degraded service returns to
  /// ServiceTier::kFull.
  std::size_t resume_watermark = 1024;
};

/// Structure-based defense tier of the supervised service
/// (service::DefenseScorer, docs/DEFENSES.md). Off by default: with
/// `enabled == false` the service's FlagBatch and stats_json stay
/// byte-identical to builds that predate the tier. When on, supervisors
/// maintain a rolling graph from pumped accept/seed events and publish
/// SybilRank (of the graph at the last flag sweep, ranked when read) and
/// clustering scores as a *second signal* alongside the
/// threshold verdicts (annotation columns; never gating who is
/// flagged).
struct DefenseOptions {
  bool enabled = false;

  /// SybilRank trust seeds (known-honest accounts). Empty disables the
  /// rank tier; clustering maintenance still runs.
  std::vector<graph::NodeId> seeds;
};

struct DetectorOptions {
  /// The threshold rule both detector paths apply (paper Section 2.3).
  ThresholdRule rule{};

  /// Streaming ingestion hardening (see IngestOptions).
  IngestOptions ingest{};

  /// Degradation tiers of the supervised service (see OverloadOptions;
  /// ignored by detectors used without a ServiceSupervisor).
  OverloadOptions overload{};

  /// Graph-defense tier (see DefenseOptions; ignored by
  /// detectors used without a ServiceSupervisor).
  DefenseOptions defense{};

  /// Throws std::invalid_argument naming the offending field when the
  /// options cannot configure any detector (out-of-range ratios,
  /// negative or non-finite watermark, ...).
  void validate() const;
};

}  // namespace sybil::core
