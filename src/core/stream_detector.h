// Streaming Sybil detector: the production form of the paper's
// real-time system.
//
// Where FeatureExtractor computes features from a graph snapshot, this
// detector consumes the platform's request event stream *incrementally*
// — O(1) amortized work per event, no snapshots — and keeps every
// account's four features current:
//
//   * invitation rates: the same hour-bucket ledger the batch path uses;
//   * accept ratios: plain counters;
//   * clustering coefficient of the first kFirstFriends friends: each
//     account "watches" those friends; a reverse index (node → watching
//     accounts) lets a new friendship (a, b) update the internal-link
//     counter of exactly the accounts that watch both endpoints.
//
// One ingestion surface: ingest()/finish(). It is built for hostile or
// degraded feeds (late, duplicated, reordered, malformed records):
// events pass structural validation, sequence-number deduplication and
// a watermark-based reorder buffer before the feature engine applies
// them, and rejected events are quarantined into a bounded dead-letter
// queue with typed reason codes (core/stream_error.h). The watermark
// and the account-id bound live in DetectorOptions::ingest; semantics
// are specified in docs/ROBUSTNESS.md. A watermark of 0 applies a
// nondecreasing-time feed event by event, in arrival order.
//
// Ingestion maintains an exact accounting invariant at all times:
//   events_in == applied + deduped + dead-lettered + buffered.
//
// Ingesting a network's event log with a watermark that covers the
// log's largest time inversion reproduces the batch features exactly
// (tested in stream_detector_test.cpp).
//
// Observability: every applied event bumps a "stream.events.*" counter
// for its kind (creations and dropped requests have none), flags bump
// "stream.flagged", sweeps count the accounts they re-check under
// "stream.sweep.evaluated", and ingestion adds "stream.ingest.*" and
// "stream.deadletter.*" counters. Collection never affects verdicts.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/detector.h"
#include "core/detector_options.h"
#include "core/features.h"
#include "core/flat_set.h"
#include "core/reorder_calendar.h"
#include "core/stream_error.h"
#include "core/threshold_detector.h"
#include "osn/events.h"
#include "osn/ledger.h"

namespace sybil::core {

class StreamDetector {
 public:
  StreamDetector() : StreamDetector(DetectorOptions{}) {}
  /// Throws std::invalid_argument if `options` fails validate().
  explicit StreamDetector(const DetectorOptions& options);

  /// Sentinel: let ingest() assign a unique sequence number (disables
  /// duplicate detection for that event — auto numbers never repeat).
  static constexpr std::uint64_t kAutoSeq = ~std::uint64_t{0};

  /// Quarantined events kept for inspection; older ones are evicted.
  static constexpr std::size_t kDeadLetterCapacity = 1024;

  /// One quarantined event: what arrived, its transport sequence
  /// number, and why it was rejected.
  struct DeadLetter {
    osn::Event event;
    std::uint64_t seq;
    StreamErrorCode reason;
  };

  /// Validates, deduplicates and reorder-buffers one log-convention
  /// event, then applies every event whose time has passed the
  /// watermark. An event referencing an already-banned account never
  /// mutates the banned account's state (the late-ban/request race):
  /// the banned side is frozen, the live side still updates, and the
  /// event is counted under banned_party_total(). `seq` is
  /// the transport-level sequence number (a log index, a Kafka offset);
  /// redelivery of an already-seen seq within the reorder horizon is
  /// counted as a duplicate and ignored. A rejected event is
  /// quarantined into the dead-letter queue; ingest never throws on
  /// bad input. `stamp` is the stream clock a ShardRouter stamps on
  /// every copy — the largest valid event time offered to the whole
  /// fleet so far — so every shard quarantines and releases against one
  /// clock: the high watermark becomes max(itself, stamp, e.time), and
  /// the stamp counts even when `e` is rejected. With osn::kNoStamp the
  /// watermark follows this detector's own events only.
  void ingest(const osn::Event& e, std::uint64_t seq = kAutoSeq,
              graph::Time stamp = osn::kNoStamp);

  /// Drains the reorder buffer (end of stream / shutdown). Events still
  /// in flight are applied in (time, seq) order. ingest() may be called
  /// again afterwards; the watermark is retained.
  void finish();

  /// Structural validation of an untrusted record under `ingest`.
  /// Returns true when the event may be applied; otherwise sets
  /// `reason`. The router's clock counts only the times of events that
  /// pass, as a single detector's watermark does.
  static bool structurally_valid(const osn::Event& e,
                                 const IngestOptions& ingest,
                                 StreamErrorCode& reason) noexcept;

  /// Smallest seq in the reorder buffer, or kAutoSeq when it is empty.
  std::uint64_t oldest_buffered_seq() const noexcept;

  /// Checkpoint restore step. A stream-state blob (core/detector_state.h)
  /// holds no in-flight events; after restore_stream_state the caller
  /// hands back, in ingest order, every event ingested from the oldest
  /// one still buffered on. This re-buffers `e` under `seq` iff it is
  /// structurally valid and its time is above the low watermark — which
  /// is exactly the set still buffered when every seq is unique (so none
  /// was deduped) and no finish() ran since the first of them. Changes
  /// no counter.
  void restore_buffered(const osn::Event& e, std::uint64_t seq);

  /// Exact ingestion accounting. Invariant at every point:
  ///   events_in() == applied_total() + deduped_total()
  ///                  + deadletter_total() + buffered().
  std::uint64_t events_in() const noexcept { return events_in_; }
  std::uint64_t applied_total() const noexcept { return applied_total_; }
  std::uint64_t deduped_total() const noexcept { return deduped_total_; }
  std::uint64_t deadletter_total() const noexcept {
    return deadletter_total_;
  }
  std::uint64_t buffered() const noexcept { return reorder_.size(); }

  /// Exact dead-letter count for one rejection reason; the sum over all
  /// reasons equals deadletter_total(). Unlike the dead-letter queue
  /// (bounded, evicting) these counters never lose history — they are
  /// what the service's accounting JSON and dashboards break down by.
  std::uint64_t deadletter_by_reason(StreamErrorCode reason) const noexcept {
    return deadletter_by_reason_[static_cast<std::size_t>(reason)];
  }

  /// Most recent quarantined events (at most kDeadLetterCapacity;
  /// older entries evicted and counted in dead_letters_dropped()).
  const std::deque<DeadLetter>& dead_letters() const noexcept {
    return dead_letters_;
  }
  std::uint64_t dead_letters_dropped() const noexcept {
    return dead_letters_dropped_;
  }

  /// Applied events that referenced an account already banned at apply
  /// time — tolerated, banned side frozen.
  std::uint64_t banned_party_total() const noexcept {
    return banned_party_total_;
  }

  /// Current streaming features of an account (zero-state for accounts
  /// never seen).
  SybilFeatures features(osn::NodeId account) const;

  /// Accounts newly crossing the threshold rule since the last call,
  /// with their features captured at flag time; each account is
  /// reported at most once, banned accounts never.
  FlagBatch take_flagged();

  /// Re-evaluates, in ascending id order, the accounts whose rule
  /// inputs changed since the detector last evaluated them — after a
  /// restore, every account — and stamps new flags with `now`. It flags
  /// exactly what re-evaluating every known account would. This is the
  /// flag-sweep-only degradation tier's periodic pass, which must keep
  /// emitting verdicts from existing evidence even while feature
  /// ingestion is shed. Returns how many accounts were newly flagged
  /// (retrieve them via take_flagged()).
  std::size_t sweep_flags(graph::Time now);

  const ThresholdRule& rule() const noexcept { return detector_.rule(); }
  std::size_t flagged_total() const noexcept { return flagged_total_; }
  std::size_t accounts_seen() const noexcept { return accounts_.size(); }

 private:
  /// Checkpoint codec (core/detector_state.h): serializes the private
  /// state except the in-flight events, which restore_buffered() brings
  /// back, so a recovered detector is byte-identical to one that never
  /// stopped. Kept out of the public API on purpose.
  friend struct DetectorStateAccess;

  struct AccountState {
    osn::RequestLedger ledger;
    std::vector<osn::NodeId> first_friends;  // chronological, <= kFirstFriends
    std::uint32_t internal_links = 0;  // edges among first_friends
    bool flagged = false;
    bool banned = false;
    bool dirty = false;  // queued in dirty_ for the next sweep
  };

  void ensure(osn::NodeId id);
  void add_edge(osn::NodeId u, osn::NodeId v, graph::Time t);
  /// Registers v as a (possibly) watched friend of u and updates u's
  /// internal link count against the already-watched friends.
  void attach_friend(osn::NodeId u, osn::NodeId v);
  void maybe_flag(osn::NodeId id, graph::Time t);
  /// Queues `id` for the next sweep_flags: its rule inputs changed and
  /// apply() does not re-check it.
  void mark_dirty(osn::NodeId id);
  /// Applies one released log-convention event to the features.
  void apply(const osn::Event& e);
  /// Accounts for a rejected event (dead-letter queue + counters).
  void quarantine(const osn::Event& e, std::uint64_t seq,
                  StreamErrorCode reason);
  /// Records a popped entry's (time, seq) in released_ and applies it
  /// (release_ready() and finish()).
  void release(const ReorderCalendar::Entry& b);
  /// Applies every buffered event at or below the low watermark.
  void release_ready();
  graph::Time low_watermark() const noexcept {
    return high_watermark_ - options_.ingest.watermark_hours;
  }

  DetectorOptions options_;
  ThresholdDetector detector_;
  std::vector<AccountState> accounts_;
  /// watchers_[v] = accounts whose first-friend set contains v. Only
  /// membership and list length are read, so a restore rebuilds it from
  /// first_friends in account order.
  std::vector<std::vector<osn::NodeId>> watchers_;
  /// Existing edges, for the internal-link update (canonical u<v keys).
  /// Flat open-addressing set: the ingest hot path probes it per edge
  /// event, and node-based sets cost an allocation per insert.
  FlatSet64 edges_;
  std::vector<FlagRecord> newly_flagged_;
  /// Accounts sweep_flags re-checks, each once (AccountState::dirty);
  /// not serialized, restore marks every account.
  std::vector<osn::NodeId> dirty_;
  std::size_t flagged_total_ = 0;

  // ---- ingestion state ----
  /// In-flight events, released in (time, seq) order so replays of the
  /// same event multiset apply identically whatever the arrival
  /// interleaving (the chaos-equivalence invariant).
  ReorderCalendar reorder_;
  /// Seqs accepted within the reorder horizon (duplicate detection);
  /// pruned as the low watermark advances past their event time. Always
  /// the disjoint union of the buffered and the released_ seqs; a
  /// checkpoint restore keeps only the buffered ones.
  SeqBitSet seen_seqs_;
  /// Released-but-not-yet-pruned (time, seq) pairs in ascending order,
  /// so pruning pops from the front. The calendar releases in that
  /// order, except after a finish(): a later release may sort before
  /// entries finish() drained, and is inserted in place. Events still
  /// buffered need no entry: release (time <= low) always precedes
  /// pruning (time < low) under the same low watermark, so only
  /// released seqs are ever prunable.
  std::deque<std::pair<graph::Time, std::uint64_t>> released_;
  graph::Time high_watermark_;  // max event time accepted or stamped so far
  std::deque<DeadLetter> dead_letters_;
  std::uint64_t next_auto_seq_;
  std::uint64_t events_in_ = 0;
  std::uint64_t applied_total_ = 0;
  std::uint64_t deduped_total_ = 0;
  std::uint64_t deadletter_total_ = 0;
  std::uint64_t deadletter_by_reason_[kStreamErrorCodeCount] = {};
  std::uint64_t dead_letters_dropped_ = 0;
  std::uint64_t banned_party_total_ = 0;
};

}  // namespace sybil::core
