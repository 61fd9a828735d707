#include "service/supervisor.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/detector_state.h"
#include "core/metrics/instrument.h"
#include "io/error.h"
#include "service/defense_scorer.h"

namespace sybil::service {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t tier_bits(core::ServiceTier tier) noexcept {
  return (static_cast<std::uint32_t>(tier) << WalRecordFlags::kTierShift) &
         WalRecordFlags::kTierMask;
}

constexpr core::ServiceTier tier_from_flags(std::uint32_t flags) noexcept {
  return static_cast<core::ServiceTier>((flags & WalRecordFlags::kTierMask) >>
                                        WalRecordFlags::kTierShift);
}

/// Kinds shed at ServiceTier::kShedLowPriority — bookkeeping events
/// whose loss degrades feature freshness but cannot lose a verdict
/// (the request/accept/reject flow and bans still land).
bool low_priority(osn::EventType t) noexcept {
  return t == osn::EventType::kAccountCreated ||
         t == osn::EventType::kRequestDropped ||
         t == osn::EventType::kFriendshipSeeded;
}

}  // namespace

void append_field(std::string& out, const char* key, std::uint64_t value) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

IngestTotals& IngestTotals::operator+=(const IngestTotals& other) noexcept {
  queued += other.queued;
  applied += other.applied;
  deduped += other.deduped;
  deadlettered += other.deadlettered;
  for (std::size_t i = 0; i < core::kStreamErrorCodeCount; ++i) {
    deadletter_by_reason[i] += other.deadletter_by_reason[i];
  }
  deadletter_dropped += other.deadletter_dropped;
  buffered += other.buffered;
  banned_party += other.banned_party;
  flagged += other.flagged;
  return *this;
}

void append_accounting_json(std::string& out, const ServiceCounters& counters,
                            const IngestTotals& totals,
                            std::optional<std::uint64_t> accounts_seen) {
  append_field(out, "offered", counters.offered);
  append_field(out, "admitted", counters.admitted);
  out += ",\"shed\":{";
  append_field(out, "low_priority", counters.shed_low_priority);
  append_field(out, "sweep_only", counters.shed_sweep_only);
  append_field(out, "capacity", counters.shed_capacity);
  append_field(out, "total", counters.shed_total());
  out += '}';
  append_field(out, "queued", totals.queued);
  append_field(out, "pumped", counters.pumped);
  append_field(out, "applied", totals.applied);
  append_field(out, "deduped", totals.deduped);
  out += ",\"deadlettered\":{";
  append_field(out, "total", totals.deadlettered);
  for (std::size_t i = 0; i < core::kStreamErrorCodeCount; ++i) {
    append_field(out, core::to_string(static_cast<core::StreamErrorCode>(i)),
                 totals.deadletter_by_reason[i]);
  }
  append_field(out, "dropped", totals.deadletter_dropped);
  out += '}';
  append_field(out, "buffered", totals.buffered);
  append_field(out, "banned_party", totals.banned_party);
  if (accounts_seen) append_field(out, "accounts_seen", *accounts_seen);
  append_field(out, "flagged_total", totals.flagged);
  append_field(out, "sweeps", counters.sweeps);
  append_field(out, "sweep_flagged", counters.sweep_flagged);
}

#if SYBIL_METRICS_COMPILED

// Per-instance metric handles. The instrument.h macros cache handles in
// function-local statics, which would fuse every shard of a sharded
// service onto one metric name; a supervisor therefore resolves its own
// handles once, under its shard namespace ("service.shard.<i>.*" when
// it is one of N, plain "service.*" standalone), and sharded counters
// additionally feed the aggregated "service.*" family so fleet-wide
// dashboards need no client-side summing (docs/OBSERVABILITY.md).
struct ServiceSupervisor::Metrics {
  struct Count {
    core::metrics::Counter* local = nullptr;
    core::metrics::Counter* agg = nullptr;  // aggregate twin (sharded only)
    void add(std::uint64_t n = 1) const noexcept {
      // Unregistered handles (the defense family with the tier off)
      // no-op, so a defense-off build exports exactly the PR 7 rows.
      if (n == 0 || local == nullptr || !core::metrics::metrics_enabled()) {
        return;
      }
      local->add(n);
      if (agg != nullptr) agg->add(n);
    }
  };
  // Gauges are instantaneous, so an aggregated twin would be
  // last-writer-wins noise across shards: local only.
  struct Level {
    core::metrics::Gauge* local = nullptr;
    void set(double v) const noexcept {
      if (core::metrics::metrics_enabled()) local->set(v);
    }
  };

  Count recoveries;
  Count cold_starts;
  Count replayed_records;
  Count generations_discarded;
  Count tier_transitions;
  Count shed[kShedCapacity + 1];  // by Verdict; kAdmitted stays unregistered
  Count sweeps;
  Count deadletter[core::kStreamErrorCodeCount];
  Count deadletter_total;
  Count deadletter_dropped;
  // Defense tier (registered only when DetectorOptions::defense is on;
  // unregistered handles no-op — see Count::add).
  Count defense_edges;
  Count defense_rounds;
  Count defense_full;
  Count defense_scores;
  // Storage-degraded mode incidents (docs/OBSERVABILITY.md §storage.*).
  Count storage_entries;
  Count storage_exits;
  Count storage_retries;
  Count storage_retry_failures;
  Count storage_checkpoints_suspended;
  Level storage_buffered;
  Level queue_depth;
  Level tier;

  explicit Metrics(const ServiceOptions& o) {
    auto& reg = core::metrics::MetricsRegistry::instance();
    const bool sharded = o.shard_count > 1;
    const std::string prefix =
        sharded ? "service.shard." + std::to_string(o.shard_id) + "."
                : std::string("service.");
    const auto count = [&](const std::string& name) {
      Count c;
      c.local = &reg.counter(prefix + name);
      if (sharded) c.agg = &reg.counter("service." + name);
      return c;
    };
    const auto level = [&](const std::string& name) {
      Level l;
      l.local = &reg.gauge(prefix + name);
      return l;
    };
    recoveries = count("recovery.count");
    cold_starts = count("recovery.cold_starts");
    replayed_records = count("recovery.replayed_records");
    generations_discarded = count("recovery.generations_discarded");
    tier_transitions = count("tier.transitions");
    shed[kShedLowPriority] = count("shed.low_priority");
    shed[kShedSweepOnly] = count("shed.sweep_only");
    shed[kShedCapacity] = count("shed.capacity");
    sweeps = count("sweeps");
    for (std::size_t i = 0; i < core::kStreamErrorCodeCount; ++i) {
      deadletter[i] = count(std::string("deadletter.") +
                            core::to_string(static_cast<core::StreamErrorCode>(i)));
    }
    deadletter_total = count("deadletter.total");
    deadletter_dropped = count("deadletter.dropped");
    if (o.detector.defense.enabled) {
      defense_edges = count("defense.edges_observed");
      defense_rounds = count("defense.propagation_rounds");
      defense_full = count("defense.full_recomputes");
      defense_scores = count("defense.scores_published");
    }
    storage_entries = count("storage.degraded_entries");
    storage_exits = count("storage.degraded_exits");
    storage_retries = count("storage.retries");
    storage_retry_failures = count("storage.retry_failures");
    storage_checkpoints_suspended = count("storage.checkpoints_suspended");
    storage_buffered = level("storage.buffered");
    queue_depth = level("queue.depth");
    tier = level("tier");
  }
};

#define SYBIL_SERVICE_METRIC(expr)           \
  do {                                       \
    if (metrics_ != nullptr) metrics_->expr; \
  } while (0)

#else  // SYBIL_METRICS_COMPILED == 0

struct ServiceSupervisor::Metrics {};

#define SYBIL_SERVICE_METRIC(expr) \
  do {                             \
  } while (0)

#endif  // SYBIL_METRICS_COMPILED

void ServiceOptions::validate() const {
  detector.validate();
  if (dir.empty()) {
    throw std::invalid_argument("ServiceOptions::dir must be non-empty");
  }
  if (wal_segment_records == 0) {
    throw std::invalid_argument(
        "ServiceOptions::wal_segment_records must be >= 1");
  }
  if (checkpoint_retain == 0) {
    throw std::invalid_argument("ServiceOptions::checkpoint_retain must be "
                                ">= 1 (retention is the fallback depth)");
  }
  if (shard_count == 0) {
    throw std::invalid_argument("ServiceOptions::shard_count must be >= 1");
  }
  if (shard_id >= shard_count) {
    throw std::invalid_argument(
        "ServiceOptions::shard_id must be < shard_count");
  }
}

ServiceSupervisor::ServiceSupervisor(const ServiceOptions& options)
    : options_((options.validate(), options)),
      detector_(options.detector),
      realtime_(options.detector) {
  if (options_.detector.defense.enabled) {
    scorer_ = std::make_unique<DefenseScorer>(options_.detector);
  }
#if SYBIL_METRICS_COMPILED
  metrics_ = std::make_unique<Metrics>(options_);
#endif
}

ServiceSupervisor::~ServiceSupervisor() = default;

void ServiceSupervisor::require_started(const char* what) const {
  if (!started_) {
    throw std::logic_error(std::string("ServiceSupervisor::") + what +
                           " before start()");
  }
}

void ServiceSupervisor::reset_state() {
  detector_ = core::StreamDetector(options_.detector);
  if (scorer_ != nullptr) {
    scorer_ = std::make_unique<DefenseScorer>(options_.detector);
  }
  queue_.clear();
  cursor_.reset();
  tier_ = core::ServiceTier::kFull;
  counters_ = {};
  next_seq_ = 0;
  clock_ = osn::kNoStamp;
  storage_degraded_ = false;
}

template <typename Action>
bool ServiceSupervisor::storage_io(Action action) {
  try {
    action();
    return true;
  } catch (const io::VfsError& err) {
    if (io::is_fatal(err.kind())) throw;
    if (storage_degraded_) {
      ++storage_retry_failures_;
      SYBIL_SERVICE_METRIC(storage_retry_failures.add(1));
    } else {
      storage_degraded_ = true;
      storage_error_kind_ = err.kind();
      ++storage_entries_;
      SYBIL_SERVICE_METRIC(storage_entries.add(1));
    }
    SYBIL_SERVICE_METRIC(
        storage_buffered.set(static_cast<double>(wal_->unsynced_records())));
    return false;
  }
}

RecoveryReport ServiceSupervisor::start() {
  if (started_) {
    throw std::logic_error("ServiceSupervisor::start called twice");
  }
  SYBIL_METRIC_SCOPED_TIMER(span, "service.recovery");
  const std::string wal_dir = options_.dir + "/wal";
  const std::string ckpt_dir = options_.dir + "/ckpt";
  fs::create_directories(ckpt_dir);

  RecoveryReport report;
  std::uint64_t replay_from = 0;  // both stay 0 on a cold start
  std::uint64_t position = 0;

  // Newest valid checkpoint generation wins; corrupt generations are
  // discarded (typed SnapshotError) and the previous one is tried —
  // never a crash, never silent loss, just a longer WAL replay.
  const auto generations = list_checkpoints(ckpt_dir);
  for (std::size_t i = generations.size(); i-- > 0;) {
    try {
      const ServiceCheckpointState state =
          load_service_checkpoint(generations[i].second);
      // Identity check before anything is restored: a checkpoint from
      // another shard is misconfiguration, not corruption, so it must
      // escape the fallback loop and fail the whole start() loudly
      // (plain logic_error — only SnapshotError triggers fallback).
      if (state.shard_count != options_.shard_count ||
          state.shard_id != options_.shard_id) {
        throw std::logic_error(
            "service checkpoint " + generations[i].second +
            " was written by shard " + std::to_string(state.shard_id) +
            "/" + std::to_string(state.shard_count) +
            " but this supervisor is shard " +
            std::to_string(options_.shard_id) + "/" +
            std::to_string(options_.shard_count));
      }
      core::restore_stream_state(detector_, state.stream_state);
      if (scorer_ != nullptr) {
        // A defense-enabled supervisor refuses a checkpoint without a
        // scorer section: typed SnapshotError, so the fallback loop
        // tries an older generation and ultimately rebuilds the scorer
        // from the full WAL (cold start) rather than resuming with a
        // silently empty graph. A defense-off supervisor ignores any
        // defense_state it finds.
        if (state.defense_state.empty()) {
          throw io::SnapshotError(
              io::SnapshotErrorCode::kFormatViolation,
              "checkpoint " + generations[i].second +
                  " carries no defense-scorer section but "
                  "DetectorOptions::defense is enabled");
        }
        scorer_->restore(state.defense_state);
      }
      tier_ = static_cast<core::ServiceTier>(state.tier);
      counters_ = state.counters;
      next_seq_ = state.next_seq;
      report.cold_start = false;
      report.checkpoint_file = generations[i].second;
      report.checkpoint_position = state.wal_position;
      replay_from = state.replay_from;
      position = state.wal_position;
      replay_starts_[position] = replay_from;
      newest_position_ = position;
      newest_state_bytes_ =
          state.stream_state.size() + state.defense_state.size();
      break;
    } catch (const io::SnapshotError&) {
      reset_state();  // a partial restore must not leak into a fallback
      ++report.generations_discarded;
      SYBIL_SERVICE_METRIC(generations_discarded.add(1));
    }
  }

  // Records below the position are the in-flight events the checkpoint
  // did not store; the rest replay through apply(), which re-counts them
  // as the live offers did. The WAL must hold all of them: indices ascend
  // strictly, so the first index and the count below the position rule
  // out any gap below it, and each replayed record must follow the last.
  // No fallback: an older generation needs a superset. The scan hands
  // records over as it decodes them, and the admitted ones stay in the
  // WAL: pump() reads them back through a cursor, so the log is never
  // held in memory. A throw drops whatever was restored or replayed.
  std::optional<std::uint64_t> first;
  std::uint64_t below = 0;
  bool rebuilt = false;
  // The checkpoint's queue is the last `queued` admitted records below
  // the position (a pumped count above admitted wraps past any size);
  // the detector pumped the ones before them and re-buffers those it
  // still held. `held` trails the scan by that many, handing the
  // detector each record that falls out of it.
  const std::uint64_t queued = counters_.admitted - counters_.pumped;
  std::deque<Queued> held;
  std::optional<std::uint64_t> cursor_begin;
  // Runs once every record below the position is seen: checks the
  // coverage and where the queue starts.
  const auto rebuild = [&] {
    rebuilt = true;
    if ((first && *first != replay_from) || below != position - replay_from) {
      throw io::SnapshotError(
          io::SnapshotErrorCode::kTruncated,
          "WAL " + wal_dir + " does not reach its replay start " +
              std::to_string(replay_from) + " below position " +
              std::to_string(position) + " (first record " +
              (first ? std::to_string(*first) : "none") + ")");
    }
    if (held.size() < queued) {
      throw io::SnapshotError(io::SnapshotErrorCode::kFormatViolation,
                              "checkpoint queue outruns its WAL records");
    }
    if (!held.empty()) cursor_begin = held.front().index;
    held = {};
  };
  WalScanReport scan;
  try {
    scan = scan_wal(
        wal_dir, replay_from,
        [&](const WalRecord& r) {
          if (!first) first = r.index;
          if (r.index < position) {
            ++below;
            if (!r.shed()) {  // counted in the checkpoint
              held.push_back({r.index, r.seq, r.event, r.stamp});
              if (held.size() > queued) {
                detector_.restore_buffered(held.front().event,
                                           held.front().index);
                held.pop_front();
              }
            }
            return;
          }
          if (!rebuilt) rebuild();
          if (r.index != position + report.records_replayed) {
            throw io::SnapshotError(
                io::SnapshotErrorCode::kTruncated,
                "WAL " + wal_dir + " skips from record " +
                    std::to_string(position + report.records_replayed) +
                    " to " + std::to_string(r.index));
          }
          if (apply(r) == kAdmitted && !cursor_begin) cursor_begin = r.index;
          ++report.records_replayed;
        },
        options_.shard_id, options_.vfs);
    if (!rebuilt) rebuild();
  } catch (...) {
    reset_state();
    throw;
  }
  // The last logged record's stamp, also when no record is replayed: the
  // header of the segment after a pruned one keeps it.
  clock_ = scan.last_stamp;
  report.records_truncated = scan.records_truncated;
  report.torn_tails_healed = scan.torn_tails_healed;

  // Appends resume on a fresh segment past everything durable. (The
  // max guards the kNever policy, where a checkpoint may outlive
  // unsynced WAL records it thought it covered.)
  const std::uint64_t next = std::max(position, scan.next_index);
  WalOptions wal_opts;
  wal_opts.dir = wal_dir;
  wal_opts.segment_records = options_.wal_segment_records;
  wal_opts.fsync = options_.wal_fsync;
  wal_opts.shard_id = options_.shard_id;
  wal_opts.vfs = options_.vfs;
  wal_ = std::make_unique<WalWriter>(wal_opts, next, clock_);
  // Every admitted, unpumped record is in [cursor_begin, next), which
  // the writer, appending from `next` on, never touches.
  if (cursor_begin) {
    cursor_.emplace(wal_dir, *cursor_begin, next,
                    counters_.admitted - counters_.pumped, options_.shard_id,
                    options_.vfs);
  }

  report.next_index = next;
  report.next_seq = next_seq_;
  started_ = true;
  SYBIL_SERVICE_METRIC(recoveries.add(1));
  if (report.cold_start) SYBIL_SERVICE_METRIC(cold_starts.add(1));
  SYBIL_SERVICE_METRIC(replayed_records.add(report.records_replayed));
  SYBIL_SERVICE_METRIC(queue_depth.set(static_cast<double>(queue_depth())));
  SYBIL_SERVICE_METRIC(tier.set(static_cast<std::uint32_t>(tier_)));
  return report;
}

void ServiceSupervisor::update_tier() {
  const auto& o = options_.detector.overload;
  const std::uint64_t depth = queue_depth();
  core::ServiceTier next = tier_;
  if (depth >= o.sweep_only_watermark) {
    next = core::ServiceTier::kSweepOnly;
  } else if (depth >= o.shed_watermark) {
    // Degrade at least one tier, but never un-degrade here: a queue
    // between the watermarks keeps the tier it has (hysteresis).
    if (tier_ == core::ServiceTier::kFull) {
      next = core::ServiceTier::kShedLowPriority;
    }
  } else if (depth <= o.resume_watermark) {
    next = core::ServiceTier::kFull;
  }
  if (next != tier_) {
    tier_ = next;
    ++tier_transitions_;
    SYBIL_SERVICE_METRIC(tier_transitions.add(1));
  }
  SYBIL_SERVICE_METRIC(tier.set(static_cast<std::uint32_t>(tier_)));
}

bool ServiceSupervisor::offer(const osn::Event& e, std::uint64_t seq,
                              graph::Time stamp) {
  require_started("offer");
  if (seq < next_seq_) {
    throw std::invalid_argument(
        "ServiceSupervisor::offer: seq " + std::to_string(seq) +
        " is below next_seq() " + std::to_string(next_seq_));
  }
  update_tier();
  // The verdict, as the record's flags: bans are never shed.
  std::uint32_t flags = tier_bits(tier_);
  if (e.type != osn::EventType::kAccountBanned) {
    if (queue_depth() >= options_.detector.overload.queue_capacity) {
      flags |= WalRecordFlags::kShed | WalRecordFlags::kCapacity;
    } else if (tier_ == core::ServiceTier::kSweepOnly ||
               (tier_ == core::ServiceTier::kShedLowPriority &&
                low_priority(e.type))) {
      flags |= WalRecordFlags::kShed;
    }
  }

  // The verdict is logged before apply() makes it take effect, so a
  // crash between append and apply loses nothing that replaying the
  // record through apply() does not re-derive. The record is durable
  // at the next commit(); while storage is degraded it waits in the WAL
  // writer's bounded buffer, and everything downstream — verdict,
  // counters, queue, detector — proceeds identically to the undisturbed
  // run.
  if (storage_degraded_) {
    const std::uint64_t buffered = wal_->unsynced_records();
    if (buffered >= kStorageBufferRecords) {
      throw StorageBufferOverflow(options_.shard_id, buffered,
                                  kStorageBufferRecords);
    }
  }
  const std::uint64_t index = wal_->append(e, seq, flags, stamp);
  if (storage_degraded_) {
    SYBIL_SERVICE_METRIC(
        storage_buffered.set(static_cast<double>(wal_->unsynced_records())));
  }
  const Verdict verdict = apply(WalRecord{index, seq, e, flags, stamp});
  if (verdict == kAdmitted) queue_.push_back({index, seq, e, stamp});
  SYBIL_SERVICE_METRIC(shed[verdict].add(1));  // live offers only
  SYBIL_SERVICE_METRIC(queue_depth.set(static_cast<double>(queue_depth())));
  maybe_checkpoint();
  return verdict == kAdmitted;
}

std::uint64_t ServiceSupervisor::commit() {
  require_started("commit");
  // Degraded: one retry. While it fails the records stay buffered and
  // the caller must not acknowledge them upstream yet — recovery
  // already treats an uncommitted record as losable, which is the
  // contract.
  if (storage_degraded_) {
    const std::uint64_t pending = wal_->unsynced_records();
    return retry_storage_now() ? pending : 0;
  }
  std::uint64_t committed = 0;
  storage_io([this, &committed] { committed = wal_->commit(); });
  return committed;
}

ServiceSupervisor::Verdict ServiceSupervisor::apply(const WalRecord& r) {
  ++counters_.offered;
  if (r.seq < kExplicitSeqLimit) next_seq_ = std::max(next_seq_, r.seq + 1);
  clock_ = r.stamp;
  tier_ = tier_from_flags(r.flags);
  if (!r.shed()) {
    ++counters_.admitted;
    return kAdmitted;
  }
  if ((r.flags & WalRecordFlags::kCapacity) != 0) {
    ++counters_.shed_capacity;
    return kShedCapacity;
  }
  if (tier_ == core::ServiceTier::kSweepOnly) {
    ++counters_.shed_sweep_only;
    return kShedSweepOnly;
  }
  ++counters_.shed_low_priority;
  return kShedLowPriority;
}

template <typename More>
std::size_t ServiceSupervisor::drain(More more) {
  std::size_t n = 0;
  const auto ingest = [&](std::uint64_t index, const osn::Event& e,
                          graph::Time stamp) {
    ++counters_.pumped;
    ++n;
    detector_.ingest(e, index, stamp);
    if (scorer_ != nullptr) scorer_->observe(e);
  };
  // Recovered records were logged before every live offer: the cursor
  // drains first, and a head it stops at stops the drain.
  for (;;) {
    if (cursor_) {
      const WalRecord& r = cursor_->head();
      if (!more(r.seq, n)) break;
      ingest(r.index, r.event, r.stamp);
      cursor_->pop();
      if (cursor_->pending() == 0) cursor_.reset();
    } else if (!queue_.empty() && more(queue_.front().seq, n)) {
      const Queued r = queue_.front();
      queue_.pop_front();
      ingest(r.index, r.event, r.stamp);
    } else {
      break;
    }
  }
  SYBIL_SERVICE_METRIC(queue_depth.set(static_cast<double>(queue_depth())));
  publish_metrics();
  return n;
}

std::size_t ServiceSupervisor::pump(std::size_t max_events) {
  require_started("pump");
  return drain([max_events](std::uint64_t, std::size_t n) {
    return max_events == 0 || n < max_events;
  });
}

std::size_t ServiceSupervisor::pump_through(std::uint64_t seq_bound) {
  require_started("pump_through");
  return drain([seq_bound](std::uint64_t seq, std::size_t) {
    return seq < kExplicitSeqLimit && seq <= seq_bound;
  });
}

std::size_t ServiceSupervisor::sweep_flags(graph::Time now) {
  require_started("sweep_flags");
  ++counters_.sweeps;
  const std::size_t n = detector_.sweep_flags(now);
  counters_.sweep_flagged += n;
  // Defense refresh rides the sweep cadence: it snapshots the graph of
  // everything pumped before this sweep, and the scores take_flagged()
  // reads are pulled from that snapshot — a pure function of the event
  // prefix, however late they are read, which keeps N-shard and 1-shard
  // annotations identical.
  if (scorer_ != nullptr) scorer_->refresh();
  SYBIL_SERVICE_METRIC(sweeps.add(1));
  return n;
}

core::FlagBatch ServiceSupervisor::take_flagged() {
  core::FlagBatch batch = detector_.take_flagged();
  if (!batch.records.empty()) newest_save_.reset();
  if (scorer_ != nullptr) {
    // The first rank_score() runs the pull the last changed sweep left
    // pending, on this thread: a sweep with no batch to annotate
    // never pays for one.
    for (core::FlagRecord& r : batch.records) {
      r.defense_scored = true;
      r.defense_rank = scorer_->rank_score(r.account);
      r.defense_clustering = scorer_->clustering_score(r.account);
    }
    SYBIL_SERVICE_METRIC(defense_scores.add(batch.records.size()));
  }
  return batch;
}

void ServiceSupervisor::publish_metrics() {
#if SYBIL_METRICS_COMPILED
  if (metrics_ == nullptr) return;
  std::uint64_t total_delta = 0;
  for (std::size_t i = 0; i < core::kStreamErrorCodeCount; ++i) {
    const std::uint64_t now =
        detector_.deadletter_by_reason(static_cast<core::StreamErrorCode>(i));
    const std::uint64_t delta = now - published_deadletter_[i];
    published_deadletter_[i] = now;
    total_delta += delta;
    metrics_->deadletter[i].add(delta);
  }
  metrics_->deadletter_total.add(total_delta);
  const std::uint64_t dropped = detector_.dead_letters_dropped();
  metrics_->deadletter_dropped.add(dropped - published_deadletter_dropped_);
  published_deadletter_dropped_ = dropped;
  if (scorer_ != nullptr) {
    const auto publish = [](const Metrics::Count& c, std::uint64_t now,
                            std::uint64_t& prev) {
      c.add(now - prev);
      prev = now;
    };
    publish(metrics_->defense_edges, scorer_->edges_observed(),
            published_defense_edges_);
    publish(metrics_->defense_rounds, scorer_->rank().rounds_total(),
            published_defense_rounds_);
    publish(metrics_->defense_full, scorer_->rank().full_recomputes(),
            published_defense_full_);
  }
#endif
}

void ServiceSupervisor::maybe_checkpoint() {
  if (options_.checkpoint_every == 0) return;
  const std::uint64_t position = wal_->next_index();
  if (position % options_.checkpoint_every != 0) return;
  // records * kMinRecordBytes * kCheckpointLogShare >= state bytes, in a
  // form that cannot overflow.
  constexpr std::uint64_t kPrice = kMinRecordBytes * kCheckpointLogShare;
  const std::uint64_t needed = (newest_state_bytes_ + kPrice - 1) / kPrice;
  if (position - newest_position_ >= needed) checkpoint_now();
}

void ServiceSupervisor::checkpoint_now() {
  require_started("checkpoint_now");
  // Checkpointing is suspended while storage-degraded: a checkpoint's
  // WAL position must never outrun durable records, and the disk is
  // rejecting writes anyway. Counted, never silent — the backlog of
  // suspended checkpoints shows up in storage.checkpoints_suspended.
  if (storage_degraded_) {
    ++storage_checkpoints_suspended_;
    SYBIL_SERVICE_METRIC(storage_checkpoints_suspended.add(1));
    return;
  }
  const std::uint64_t position = wal_->next_index();
  const std::uint64_t queue_head = cursor_          ? cursor_->head().index
                                   : queue_.empty() ? position
                                                    : queue_.front().index;
  const std::uint64_t replay_from =
      std::min(queue_head, detector_.oldest_buffered_seq());
  ServiceCheckpointState state;
  state.wal_position = position;
  state.replay_from = replay_from;
  state.tier = static_cast<std::uint32_t>(tier_);
  state.shard_id = options_.shard_id;
  state.shard_count = options_.shard_count;
  state.next_seq = next_seq_;
  state.counters = counters_;
  if (scorer_ != nullptr) state.defense_state = scorer_->serialize();
  // The detector's state is encoded inside the commit, straight into
  // the container image, on the parallel layer.
  const core::StreamStateEncoder stream(detector_);
  const std::uint64_t state_bytes = stream.size() + state.defense_state.size();

  const std::string ckpt_dir = options_.dir + "/ckpt";
  // A checkpoint must never claim a position past the durable WAL, so
  // the WAL syncs first; the container commit is atomic and removes its
  // temp file on any storage fault, so a failure here never touches
  // existing generations.
  const std::string path = checkpoint_path(ckpt_dir, position);
  if (!storage_io([&] {
        wal_->sync();
        save_service_checkpoint(
            path, std::move(state),
            {stream.size(),
             [&stream](std::span<std::byte> out) { return stream.write(out); }},
            options_.vfs);
      })) {
    ++storage_checkpoints_suspended_;
    SYBIL_SERVICE_METRIC(storage_checkpoints_suspended.add(1));
    return;
  }
  replay_starts_[position] = replay_from;
  newest_save_ = save_mark();
  newest_position_ = position;
  newest_state_bytes_ = state_bytes;
  // Retention, then WAL pruning up to the oldest replay start among the
  // *retained* generations — the fallback path must always find the
  // records it would replay. One this supervisor neither wrote nor
  // loaded is unknown: keep the whole WAL rather than read it back.
  prune_checkpoints(ckpt_dir, options_.checkpoint_retain, options_.vfs);
  std::map<std::uint64_t, std::uint64_t> retained;
  std::uint64_t keep_from = replay_from;
  bool known = true;
  for (const auto& generation : list_checkpoints(ckpt_dir)) {
    const auto it = replay_starts_.find(generation.first);
    if (it == replay_starts_.end()) {
      known = false;
      continue;
    }
    retained.insert(*it);
    keep_from = std::min(keep_from, it->second);
  }
  replay_starts_ = std::move(retained);
  if (known) prune_wal(options_.dir + "/wal", keep_from, options_.vfs);
}

std::size_t ServiceSupervisor::drain_to_end() {
  require_started("drain_to_end");
  const std::size_t pumped = pump(0);
  detector_.finish();
  publish_metrics();
  return pumped;
}

void ServiceSupervisor::flush(bool checkpoint) {
  require_started("flush");
  drain_to_end();
  // End-of-stream is the loud boundary: a flush cannot leave records
  // buffered behind a degraded disk, so it commits — while degraded,
  // one forced retry — and throws the original fault kind if the disk
  // still refuses.
  commit();
  if (storage_degraded_) {
    throw io::VfsError(
        storage_error_kind_,
        "flush: storage still degraded on shard " +
            std::to_string(options_.shard_id) + " with " +
            std::to_string(wal_->unsynced_records()) + " records buffered");
  }
  if (checkpoint && newest_save_ != save_mark()) checkpoint_now();
}

ServiceSupervisor::SaveMark ServiceSupervisor::save_mark() const {
  return {wal_->next_index(), counters_, detector_.buffered()};
}

bool ServiceSupervisor::retry_storage_now() {
  if (!storage_degraded_) return true;
  ++storage_retries_;
  SYBIL_SERVICE_METRIC(storage_retries.add(1));
  if (!storage_io([this] { wal_->sync(); })) return false;
  storage_degraded_ = false;
  ++storage_exits_;
  SYBIL_SERVICE_METRIC(storage_exits.add(1));
  SYBIL_SERVICE_METRIC(storage_buffered.set(0));
  return true;
}

bool ServiceSupervisor::accounting_ok() const noexcept {
  const ServiceCounters& c = counters_;
  if (c.offered != c.shed_total() + queue_depth() + detector_.events_in()) {
    return false;
  }
  if (c.admitted != c.offered - c.shed_total()) return false;
  if (c.pumped != detector_.events_in()) return false;
  return detector_.events_in() ==
         detector_.applied_total() + detector_.deduped_total() +
             detector_.deadletter_total() + detector_.buffered();
}

IngestTotals ServiceSupervisor::ingest_totals() const {
  IngestTotals t;
  t.queued = queue_depth();
  t.applied = detector_.applied_total();
  t.deduped = detector_.deduped_total();
  t.deadlettered = detector_.deadletter_total();
  for (std::size_t i = 0; i < core::kStreamErrorCodeCount; ++i) {
    t.deadletter_by_reason[i] =
        detector_.deadletter_by_reason(static_cast<core::StreamErrorCode>(i));
  }
  t.deadletter_dropped = detector_.dead_letters_dropped();
  t.buffered = detector_.buffered();
  t.banned_party = detector_.banned_party_total();
  t.flagged = detector_.flagged_total();
  return t;
}

std::string ServiceSupervisor::stats_json() const {
  std::string out = "{";
  append_accounting_json(out, counters_, ingest_totals(),
                         detector_.accounts_seen());
  append_field(out, "next_seq", next_seq_);
  if (scorer_ != nullptr) {
    // Replay-exact like everything else here: the scorer's counters are
    // checkpointed and WAL replay re-derives them deterministically.
    out += ",\"defense\":{";
    append_field(out, "edges", scorer_->edges_observed());
    append_field(out, "ignored", scorer_->ignored());
    append_field(out, "refreshes", scorer_->refreshes());
    append_field(out, "rank_full_recomputes",
                 scorer_->rank().full_recomputes());
    append_field(out, "rank_rounds", scorer_->rank().rounds_total());
    out += '}';
  }
  out += ",\"tier\":\"";
  out += core::to_string(tier_);
  out += "\"}";
  return out;
}

}  // namespace sybil::service
