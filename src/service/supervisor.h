// Supervised, crash-fault-tolerant detection service.
//
// ServiceSupervisor wraps a StreamDetector (plus, when enabled, the
// defense scorer) behind a durable event path (the deployment posture
// the paper's Section 2.3 pipeline implies — a service banning ~100k
// accounts cannot drop or double-count friend-request events across
// restarts):
//
//   offer(event) ──admission──▶ WAL append ──▶ ingest queue
//                                                 │ pump()
//                                                 ▼
//                                        StreamDetector::ingest
//
// Every offered event is WAL-logged with its admission verdict before
// anything else happens; the detector keys each pumped event by its WAL
// index. Periodic checkpoints capture detector state without its
// in-flight events, plus the WAL position and the replay start — the
// smallest WAL index still queued or buffered in the detector.
// Recovery (start()) loads the newest valid checkpoint generation —
// falling back past corrupt ones — rebuilds the detector's reorder
// buffer from the admitted WAL records between the replay start and the
// position, and replays the WAL suffix through the same apply step a
// live offer runs after its append, re-executing recorded admission
// verdicts. The admitted records left unpumped (the checkpoint's queue
// and the replayed suffix) are not copied: pump() reads them back from
// the WAL through a WalCursor, ahead of any live offer.
// The recovered service is byte-identical to one that never crashed:
// same verdicts, same features, same accounting JSON (tested with a
// process crash at every storage op; docs/ROBUSTNESS.md §Recovery
// model).
//
// Overload control: a bounded ingest queue with three degradation
// tiers (DetectorOptions::overload) — full service, shed-low-priority,
// flag-sweep-only — entered at depth watermarks and left with
// hysteresis. Ban events are never shed. The accounting identity
//
//   offered == applied + deduped + dead-lettered + buffered
//              + queued + shed
//
// extends the hardened-ingest invariant and holds at every instant
// (accounting_ok()).
//
// Durability: each shard has one durability clock. offer() appends its
// record to the WAL writer's retained buffer (no I/O) and lets it take
// effect; commit() is the durability boundary — callers must not
// acknowledge offers upstream before it returns. A ShardRouter commits
// every live shard once per offer_batch; a bare supervisor's caller
// commits after each offer or run of offers.
//
// Storage degradation (the fourth degradation response, alongside the
// three queue tiers): when the disk under the WAL rejects writes
// (ENOSPC/EIO — io::VfsError), the supervisor does not crash and does
// not lose the offer. It enters storage-degraded mode, which is simply
// "do not commit": verdicts keep being served from memory, WAL appends
// accumulate in the writer's in-memory buffer (at most
// kStorageBufferRecords), checkpointing is suspended (counted, not
// silently skipped), and every commit() makes one retry — a WAL sync.
// If the buffer fills before the disk recovers, offer() fails loudly
// with a typed StorageBufferOverflow. When the fault window closes (a
// retry succeeds), the whole backlog flushes and full durability
// resumes — a run that degraded through a disk-fault window is
// byte-identical (flags, stats_json) to one that never did
// (docs/ROBUSTNESS.md §Storage fault model).
//
// Threading: the supervisor is single-threaded by design — determinism
// is the property the recovery proof rests on. SYBIL_THREADS affects
// nothing on this path (asserted by the recovery tests at 1 and 8).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/detector_options.h"
#include "core/realtime_detector.h"
#include "core/stream_detector.h"
#include "service/checkpoint.h"
#include "service/wal.h"

namespace sybil::service {

class DefenseScorer;

/// Explicit transport seqs live below this bound; values at or above it
/// are reserved for StreamDetector's auto-assigned seqs plus the
/// kAutoSeq sentinel, and never advance the redelivery frontier.
inline constexpr std::uint64_t kExplicitSeqLimit = std::uint64_t{1} << 63;

/// Storage-degraded buffer bound: an offer that finds this many records
/// unflushed throws StorageBufferOverflow. The buffer is the WAL
/// writer's retained write buffer, so nothing is copied.
inline constexpr std::uint64_t kStorageBufferRecords = 4096;

/// The size trigger's share: a grid point cuts a generation once the log
/// since the newest one is at least 1/kCheckpointLogShare of its state
/// (ServiceOptions::checkpoint_every). Recovery replays at most that
/// generation's state bytes / (kCheckpointLogShare * kMinRecordBytes)
/// records plus one grid step.
inline constexpr std::uint64_t kCheckpointLogShare = 5;

/// Thrown by offer() when the disk-fault window outlives the bounded
/// degraded-mode buffer: the loud, typed end of graceful degradation.
/// The offer was NOT logged; the supervisor remains usable (still
/// degraded) and the caller decides whether to drop, spill or abort.
/// Once the disk heals, a commit() (or retry_storage_now()) flushes the
/// backlog and the offer can be made again.
class StorageBufferOverflow : public std::runtime_error {
 public:
  StorageBufferOverflow(std::uint32_t shard, std::uint64_t buffered,
                        std::uint64_t bound)
      : std::runtime_error(
            "storage-degraded buffer full on shard " + std::to_string(shard) +
            ": " + std::to_string(buffered) + " records buffered (bound " +
            std::to_string(bound) + ") and the disk still rejects writes"),
        shard_(shard),
        buffered_(buffered) {}
  std::uint32_t shard() const noexcept { return shard_; }
  std::uint64_t buffered() const noexcept { return buffered_; }

 private:
  std::uint32_t shard_;
  std::uint64_t buffered_;
};

struct ServiceOptions {
  core::DetectorOptions detector{};
  /// Service state root: WAL segments under <dir>/wal, checkpoint
  /// generations under <dir>/ckpt. Created on demand.
  std::string dir;
  /// Partition identity when this supervisor is one shard of a
  /// ShardRouter (service/router.h): stamped into WAL segment headers
  /// and checkpoints, namespaces the operational metrics as
  /// "service.shard.<id>.*" (aggregated into "service.*"), and makes
  /// recovery refuse state written by any other shard. The standalone
  /// default (shard 0 of 1) keeps the PR 5 behaviour: plain "service.*"
  /// metric names and no second copy.
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  WalFsync wal_fsync = WalFsync::kEveryAppend;
  std::uint64_t wal_segment_records = 4096;
  /// The grid of WAL positions where a generation may be cut (0 = only
  /// explicit checkpoint_now()/flush() calls). At a multiple of this
  /// many records one is cut only when the records logged since the
  /// newest generation, priced at kMinRecordBytes each, reach
  /// 1/kCheckpointLogShare of that generation's state bytes (its
  /// stream plus defense sections): small state saves at every grid
  /// point, large state only once the log behind it has grown. Both
  /// inputs are a function of stream position and the newest
  /// generation, so a run recovered from generation g cuts the same
  /// later generations as the uninterrupted run. A fallback past a
  /// corrupt generation may cut different ones; flags and stats_json
  /// are identical either way.
  std::uint64_t checkpoint_every = 10000;
  /// Checkpoint generations kept on disk (the corrupt-latest fallback
  /// depth); older generations, and WAL segments wholly below every
  /// retained generation's replay start, are pruned after each
  /// successful checkpoint.
  std::size_t checkpoint_retain = 2;
  /// Storage backend for every durable path this supervisor owns — WAL
  /// segments, checkpoint containers, pruning (null → io::default_vfs()).
  /// Fault-injection tests, the crash sweeps and the chaos orchestrator
  /// hand each shard its own io::FaultyVfs.
  io::Vfs* vfs = nullptr;

  /// Throws std::invalid_argument naming the offending field (also
  /// validates the embedded DetectorOptions).
  void validate() const;
};

/// What start() found and did — the typed recovery outcome.
struct RecoveryReport {
  /// No usable checkpoint generation existed (first boot, or every
  /// generation corrupt); state was rebuilt from the full WAL, which
  /// must still start at record 0.
  bool cold_start = true;
  /// Generation recovered from (empty on cold start).
  std::string checkpoint_file;
  std::uint64_t checkpoint_position = 0;
  /// Corrupt generations skipped before a valid one loaded.
  std::uint64_t generations_discarded = 0;
  /// Records at or past the checkpoint position run through apply();
  /// the records below it, re-queued or re-buffered, are not counted.
  std::uint64_t records_replayed = 0;
  std::uint64_t records_truncated = 0;
  std::uint64_t torn_tails_healed = 0;
  /// WAL index where offers resume. Events the caller offered at or
  /// past this index before the crash never became durable (torn tail)
  /// and must be offered again — at-least-once delivery upstream plus
  /// the WAL's exactly-once replay below this index.
  std::uint64_t next_index = 0;
  /// Redelivery frontier: one past the highest explicit transport seq
  /// that is durable on this shard (checkpoint next_seq joined with the
  /// replayed WAL suffix). A router re-driving the global stream from
  /// any earlier point must suppress seqs below this before they reach
  /// offer(), keeping the shard's WAL duplicate-free.
  std::uint64_t next_seq = 0;
};

/// Where admitted events are now — the queue and the StreamDetector's
/// totals — as stats_json reports them next to ServiceCounters. The
/// ShardRouter sums these across shards for its aggregate block.
struct IngestTotals {
  std::uint64_t queued = 0;
  std::uint64_t applied = 0;
  std::uint64_t deduped = 0;
  std::uint64_t deadlettered = 0;
  std::uint64_t deadletter_by_reason[core::kStreamErrorCodeCount] = {};
  std::uint64_t deadletter_dropped = 0;
  std::uint64_t buffered = 0;
  std::uint64_t banned_party = 0;
  std::uint64_t flagged = 0;

  IngestTotals& operator+=(const IngestTotals& other) noexcept;
};

/// Appends `"key":value` to a JSON object under construction — the
/// field writer of every stats_json.
void append_field(std::string& out, const char* key, std::uint64_t value);

/// Appends the accounting fields a shard's stats_json and the router's
/// aggregate block share, "offered" through "sweep_flagged".
/// `accounts_seen` is per shard only: broadcast accounts would be
/// counted once per shard in a sum.
void append_accounting_json(
    std::string& out, const ServiceCounters& counters,
    const IngestTotals& totals,
    std::optional<std::uint64_t> accounts_seen = std::nullopt);

class ServiceSupervisor {
 public:
  /// Validates options and builds the detectors; no I/O until start().
  explicit ServiceSupervisor(const ServiceOptions& options);
  ~ServiceSupervisor();
  ServiceSupervisor(const ServiceSupervisor&) = delete;
  ServiceSupervisor& operator=(const ServiceSupervisor&) = delete;

  /// Recovers state (checkpoint + WAL replay) and opens the WAL for
  /// appending. Must be called exactly once, before any offer/pump.
  /// Throws io::SnapshotError(kTruncated) when the WAL lacks a record
  /// from the chosen generation's replay start on (from index 0 on a
  /// cold start), rather than resume on part of the history.
  RecoveryReport start();

  /// Admission control + WAL append + enqueue for one event. Returns
  /// true if the event was admitted, false if shed (it is still
  /// WAL-logged either way, so recovery reconstructs shed accounting
  /// exactly). Ban events are always admitted. Issues no WAL I/O of its
  /// own — the record becomes durable at the next commit() — except
  /// through a checkpoint that the new WAL position triggers. An
  /// explicit seq must be at least next_seq() — explicit seqs ascend
  /// strictly per shard, which a ShardRouter guarantees by suppressing
  /// redeliveries — else std::invalid_argument, before anything is
  /// logged. Throws StorageBufferOverflow when degraded with a full
  /// buffer; fatal storage faults (io::is_fatal) from that checkpoint
  /// propagate. `stamp` is the stream clock a ShardRouter stamps on
  /// every copy; it is logged with the record and handed to
  /// StreamDetector::ingest when the record is pumped.
  bool offer(const osn::Event& e,
             std::uint64_t seq = core::StreamDetector::kAutoSeq,
             graph::Time stamp = osn::kNoStamp);

  /// The durability boundary for every offer since the last one: commits
  /// the WAL (WalWriter::commit). While storage is degraded it instead
  /// makes one retry (retry_storage_now()). A non-fatal storage fault
  /// degrades instead of throwing; fatal ones propagate. Returns the
  /// records it made durable (0 while storage stays degraded: they stay
  /// buffered and the caller must not acknowledge them upstream yet).
  std::uint64_t commit();

  /// Drains up to `max_events` queued events (0 = all) into the
  /// detector, a recovery's records (read back from the WAL) before
  /// live offers. Returns how many were pumped. Throws
  /// io::SnapshotError when a recovered record no longer reads back
  /// (WalCursor): it stays unpumped and accounting_ok() holds.
  std::size_t pump(std::size_t max_events = 0);

  /// Drains queued events while their explicit transport seq is <=
  /// `seq_bound` (auto-seq records stop the drain too — they carry no
  /// position in the global stream). The queue is seq-ascending when
  /// fed through a ShardRouter, so this is pump() cut at a stream
  /// position instead of a count — and it is idempotent at a fixed
  /// bound, which is what lets a chaos orchestrator *re*-drive a
  /// recovered shard through the exact pump boundaries of an
  /// undisturbed run (docs/ROBUSTNESS.md §Scenario harness). Returns
  /// how many were pumped.
  std::size_t pump_through(std::uint64_t seq_bound);

  /// Flag-sweep-only tier's periodic pass: re-evaluates existing
  /// evidence without new ingestion. Returns newly flagged count.
  std::size_t sweep_flags(graph::Time now);

  /// Takes an incremental checkpoint at the current WAL position and
  /// prunes old generations / covered WAL segments. The replay start
  /// is the oldest record still queued or buffered; while a recovery's
  /// records are pending, reading the head one back can throw like
  /// pump().
  void checkpoint_now();

  /// End of stream: drain_to_end(), commit() — throwing the fault's
  /// io::VfsError if storage is still degraded afterwards — and
  /// checkpoint (skippable for huge throwaway runs where serializing
  /// multi-GB detector state buys nothing). After flush() the service
  /// can keep ingesting.
  void flush(bool checkpoint = true);

  /// flush()'s first half, which writes nothing: pumps the whole queue
  /// (reading a recovery's records back from the WAL) and drains the
  /// detector's reorder buffer. ShardRouter::flush runs it in
  /// the shards' parallel lanes before flushing each shard in order;
  /// a second call finds nothing left. Returns how many were pumped.
  std::size_t drain_to_end();

  /// Publishes detector-owned operational counters (per-reason dead
  /// letters) into the metric registry under this shard's namespace,
  /// as deltas since the last publish. Called from pump()/flush();
  /// exposed so tests and ops loops can force a publish point.
  void publish_metrics();

  /// Drains the detector's newly flagged accounts. When the defense
  /// tier is on (DetectorOptions::defense), each record is annotated
  /// with the scorer's rolling rank/clustering columns — a second
  /// signal that never changes *who* is flagged (docs/DEFENSES.md).
  core::FlagBatch take_flagged();

  core::ServiceTier tier() const noexcept { return tier_; }
  /// Admitted records not yet pumped: the recovered ones still in the
  /// WAL cursor plus the live offers queued behind them. Every
  /// watermark, the capacity check and the accounting count this.
  std::uint64_t queue_depth() const noexcept {
    return (cursor_ ? cursor_->pending() : 0) + queue_.size();
  }

  // ---- Storage-degraded mode (see file comment) ----

  /// True while the disk under the WAL is rejecting writes and appends
  /// are accumulating in the bounded in-memory buffer.
  bool storage_degraded() const noexcept { return storage_degraded_; }
  /// Records appended but not yet durable: the offers since the last
  /// commit() (under kEveryAppend), or the degraded backlog.
  std::uint64_t storage_buffered() const noexcept {
    return wal_ ? wal_->unsynced_records() : 0;
  }
  /// The fault kind that triggered the current/most recent degradation.
  io::VfsFaultKind storage_error_kind() const noexcept {
    return storage_error_kind_;
  }
  /// One storage retry — a WAL sync — now, without offering (commit()
  /// makes the same retry; the chaos orchestrator calls this when a
  /// fault window closes).
  /// Returns true if the service is fully durable afterwards (including
  /// the not-degraded case). Throws only for fatal faults
  /// (io::is_fatal), which are not retryable in-process.
  bool retry_storage_now();

  // Storage-incident counters (ops-only, not in stats_json: a degraded
  // run must keep stats_json byte-identical to an undisturbed one).
  std::uint64_t storage_degraded_entries() const noexcept {
    return storage_entries_;
  }
  std::uint64_t storage_degraded_exits() const noexcept {
    return storage_exits_;
  }
  std::uint64_t storage_retries() const noexcept { return storage_retries_; }
  std::uint64_t storage_retry_failures() const noexcept {
    return storage_retry_failures_;
  }
  std::uint64_t storage_checkpoints_suspended() const noexcept {
    return storage_checkpoints_suspended_;
  }

  /// Replay-exact workload counters (the same values stats_json reports).
  const ServiceCounters& counters() const noexcept { return counters_; }
  std::uint64_t offered() const noexcept { return counters_.offered; }
  std::uint64_t shed_total() const noexcept { return counters_.shed_total(); }
  std::uint64_t tier_transitions() const noexcept {
    return tier_transitions_;
  }
  /// The queue and detector side of the same accounting.
  IngestTotals ingest_totals() const;
  /// One past the highest explicit seq offered (the live redelivery
  /// frontier; start() reports its recovered value as
  /// RecoveryReport::next_seq).
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  /// Stamp of the last record logged here (osn::kNoStamp before any): the
  /// router's clock at seq next_seq() - 1, which a restarted router
  /// resumes from.
  graph::Time clock() const noexcept { return clock_; }

  /// The workload-accounting identity, checkable at any instant.
  bool accounting_ok() const noexcept;

  /// Deterministic accounting snapshot as canonical JSON — the
  /// "metrics JSON" the recovery-determinism tests pin byte-for-byte.
  /// Contains only replay-exact workload counters (offered/shed/
  /// applied/deduped/dead-letter-by-reason/flagged/...); operational
  /// incident counters (checkpoints written, fsyncs, recoveries) live
  /// in the global metrics registry, which recovery legitimately
  /// perturbs (docs/OBSERVABILITY.md §service.*).
  std::string stats_json() const;

  core::StreamDetector& detector() noexcept { return detector_; }
  const core::StreamDetector& detector() const noexcept { return detector_; }
  /// Never swept, checkpointed or restored: kept only because
  /// perfbench's checkpoint.realtime_state_bytes metric reads it
  /// (ROADMAP item 9 removes it, after item 10's benchmark change).
  core::RealTimeDetector& realtime() noexcept { return realtime_; }
  /// The defense tier's scorer, or nullptr when the tier is off. Its
  /// rank reads may run a pending pull; read it from one thread.
  const DefenseScorer* defense() const noexcept { return scorer_.get(); }

 private:
  struct Metrics;  // per-instance handles; see supervisor.cpp

  /// How apply() classified a record (also indexes Metrics::shed).
  enum Verdict : std::uint8_t {
    kAdmitted,
    kShedLowPriority,
    kShedSweepOnly,
    kShedCapacity,
  };

  void require_started(const char* what) const;
  void reset_state();
  /// Everything a logged record does to the service's counters, the
  /// redelivery frontier, the clock and the tier it was decided under.
  /// offer() calls it right after the WAL append and start() for each
  /// replayed record, so recovery runs the live code. Queueing an
  /// admitted record (offer: queue_; start: the WAL cursor) and
  /// registry metrics (live offers only) are the caller's.
  Verdict apply(const WalRecord& r);
  void update_tier();
  void maybe_checkpoint();
  /// Pops queued records — the cursor's, then queue_'s — into the
  /// detector while `more(head seq, pumped so far)` holds (pump and
  /// pump_through). A cursor read that fails throws io::SnapshotError
  /// with the failing record unpumped.
  template <typename More>
  std::size_t drain(More more);
  /// Runs one storage action (a WAL sync or a checkpoint save). A
  /// non-fatal io::VfsError enters storage-degraded mode — or, when
  /// already degraded, counts a failed retry — and returns false; fatal
  /// faults propagate.
  template <typename Action>
  bool storage_io(Action action);

  ServiceOptions options_;
  core::StreamDetector detector_;
  /// Built from options and never mutated; see realtime().
  core::RealTimeDetector realtime_;
  /// Built iff options_.detector.defense.enabled; observes every pumped
  /// event, snapshots its graph at every flag sweep, ranks it when
  /// take_flagged() or a checkpoint reads the scores; state rides in
  /// checkpoints.
  std::unique_ptr<DefenseScorer> scorer_;
  std::unique_ptr<Metrics> metrics_;
  std::unique_ptr<WalWriter> wal_;
  /// A live offer admitted and waiting for pump(): a WalRecord less
  /// its flags, 48 bytes rather than 56.
  struct Queued {
    std::uint64_t index;
    std::uint64_t seq;
    osn::Event event;
    graph::Time stamp;
  };
  /// The admitted records a recovery left unpumped, read back from the
  /// WAL as pump() drains them (null once drained): a restart never
  /// holds the log it replays. They precede everything in queue_, which
  /// holds only offers made since start().
  std::optional<WalCursor> cursor_;
  std::deque<Queued> queue_;
  core::ServiceTier tier_ = core::ServiceTier::kFull;
  bool started_ = false;

  ServiceCounters counters_;  // replay-exact, checkpointed
  std::uint64_t next_seq_ = 0;
  /// Restored from the WAL (a segment header keeps it when the record
  /// itself is pruned), so checkpoints need not store it.
  graph::Time clock_ = osn::kNoStamp;
  std::uint64_t tier_transitions_ = 0;  // ops-only, not in stats_json
  // Storage-degraded mode state + incident counters (all ops-only).
  bool storage_degraded_ = false;
  io::VfsFaultKind storage_error_kind_ = io::VfsFaultKind::kIoError;
  std::uint64_t storage_entries_ = 0;
  std::uint64_t storage_exits_ = 0;
  std::uint64_t storage_retries_ = 0;
  std::uint64_t storage_retry_failures_ = 0;
  std::uint64_t storage_checkpoints_suspended_ = 0;
  /// Registry values already published per dead-letter reason, so
  /// publish_metrics() emits exact deltas (ops-only, not checkpointed).
  std::uint64_t published_deadletter_[core::kStreamErrorCodeCount] = {};
  std::uint64_t published_deadletter_dropped_ = 0;
  /// Scorer counters already published (same delta pattern; ops-only).
  std::uint64_t published_defense_edges_ = 0;
  std::uint64_t published_defense_rounds_ = 0;
  std::uint64_t published_defense_full_ = 0;
  /// Replay start of each retained generation this supervisor wrote or
  /// loaded, keyed by WAL position: what WAL pruning must keep.
  std::map<std::uint64_t, std::uint64_t> replay_starts_;

  /// Where the service stood when it wrote its newest generation. Only
  /// a pump, a sweep, finish()'s drain of the reorder buffer or an
  /// offer moves it; take_flagged(), which empties the saved pending
  /// flags, forgets it. flush() skips a save while it still holds, so a
  /// flush retried after a later shard threw writes nothing twice.
  struct SaveMark {
    std::uint64_t wal_position = 0;
    ServiceCounters counters;
    std::uint64_t buffered = 0;
    bool operator==(const SaveMark&) const = default;
  };
  SaveMark save_mark() const;
  std::optional<SaveMark> newest_save_;
  /// WAL position and state bytes of the newest generation this
  /// supervisor wrote or loaded ((0, 0) before any): the size trigger's
  /// inputs (maybe_checkpoint).
  std::uint64_t newest_position_ = 0;
  std::uint64_t newest_state_bytes_ = 0;
};

}  // namespace sybil::service
