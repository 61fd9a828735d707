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
//   * clustering coefficient of the first K friends: each account
//     "watches" its first K friends; a reverse index (node → watching
//     accounts) lets a new friendship (a, b) update the internal-link
//     counter of exactly the accounts that watch both endpoints.
//
// Two ingestion surfaces, one feature engine:
//
//   * the on_* handlers and replay() are the TRUSTED path: events are
//     applied immediately and must arrive in nondecreasing time order
//     per account (the order a platform log provides);
//   * ingest()/finish() is the HARDENED path for hostile or degraded
//     feeds (late, duplicated, reordered, malformed records): events
//     pass structural validation, sequence-number deduplication and a
//     watermark-based reorder buffer before reaching the same handlers,
//     and rejected events are quarantined into a bounded dead-letter
//     queue with typed reason codes (core/stream_error.h). Policy,
//     watermark and bounds live in DetectorOptions::ingest; semantics
//     are specified in docs/ROBUSTNESS.md.
//
// The hardened path maintains an exact accounting invariant at all
// times:  events_in == applied + deduped + dead-lettered + buffered.
//
// Feeding the detector a network's event log reproduces the batch
// features exactly (tested in stream_detector_test.cpp), so a deployment
// can run either path and trust they agree.
//
// Observability: every event handler bumps a "stream.events.*" counter,
// and flags bump "stream.flagged"; the hardened path adds
// "stream.ingest.*" and "stream.deadletter.*" counters. Collection
// never affects verdicts.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "core/detector.h"
#include "core/detector_options.h"
#include "core/features.h"
#include "core/flat_set.h"
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

  /// Trusted event-stream entry points. Events must arrive in
  /// nondecreasing time order per account (the order a platform log
  /// provides); use ingest() for feeds that cannot promise that.
  /// Events referencing an already-banned account never mutate the
  /// banned account's state (the late-ban/request race): the banned
  /// side is frozen, the live side still updates, and the event is
  /// counted under banned_party_total / "stream.events.banned_party".
  void on_request_sent(osn::NodeId from, osn::NodeId to, graph::Time t);
  void on_request_rejected(osn::NodeId from, osn::NodeId to, graph::Time t);
  /// `from`'s request was accepted by `to` at time t (creates an edge).
  void on_request_accepted(osn::NodeId from, osn::NodeId to, graph::Time t);
  /// Pre-existing friendship without request mechanics (seeded edge).
  void on_friendship(osn::NodeId u, osn::NodeId v, graph::Time t);
  void on_account_banned(osn::NodeId who);

  /// Replays a whole event log (convenience for batch catch-up).
  /// Dispatches to the on_* handlers, so metrics counters advance
  /// exactly as they would for the equivalent live stream.
  void replay(const osn::EventLog& log);

  // ---- Hardened ingestion (hostile / degraded feeds) ----

  /// Sentinel: let ingest() assign a unique sequence number (disables
  /// duplicate detection for that event — auto numbers never repeat).
  static constexpr std::uint64_t kAutoSeq = ~std::uint64_t{0};

  /// One quarantined event: what arrived, its transport sequence
  /// number, and why it was rejected.
  struct DeadLetter {
    osn::Event event;
    std::uint64_t seq;
    StreamErrorCode reason;
  };

  /// Validates, deduplicates and reorder-buffers one event, then
  /// applies every event whose time has passed the watermark. `seq` is
  /// the transport-level sequence number (a log index, a Kafka offset);
  /// redelivery of an already-seen seq within the reorder horizon is
  /// counted as a duplicate and ignored. Under IngestPolicy::kStrict a
  /// rejected event throws StreamError *after* being accounted for.
  void ingest(const osn::Event& e, std::uint64_t seq = kAutoSeq);

  /// Drains the reorder buffer (end of stream / shutdown). Events still
  /// in flight are applied in (time, seq) order. ingest() may be called
  /// again afterwards; the watermark is retained.
  void finish();

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

  /// Most recent quarantined events (at most ingest.dead_letter_capacity;
  /// older entries evicted and counted in dead_letters_dropped()).
  const std::deque<DeadLetter>& dead_letters() const noexcept {
    return dead_letters_;
  }
  std::uint64_t dead_letters_dropped() const noexcept {
    return dead_letters_dropped_;
  }

  /// Events (trusted or hardened path) that referenced an account
  /// already banned at apply time — tolerated, banned side frozen.
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

  /// Re-evaluates every known account against the rule and stamps new
  /// flags with `now` — the flag-sweep-only degradation tier's periodic
  /// pass, which must keep emitting verdicts from existing evidence
  /// even while feature ingestion is shed. Returns how many accounts
  /// were newly flagged (retrieve them via take_flagged()).
  std::size_t sweep_flags(graph::Time now);

  const ThresholdRule& rule() const noexcept { return detector_.rule(); }
  std::size_t flagged_total() const noexcept { return flagged_total_; }
  std::size_t accounts_seen() const noexcept { return accounts_.size(); }

 private:
  /// Checkpoint codec (core/detector_state.h): serializes the complete
  /// private state so a recovered detector is byte-identical to one
  /// that never stopped. Kept out of the public API on purpose.
  friend struct DetectorStateAccess;

  struct AccountState {
    osn::RequestLedger ledger;
    std::vector<osn::NodeId> first_friends;  // chronological, size <= K
    std::uint32_t internal_links = 0;  // edges among first_friends
    bool flagged = false;
    bool banned = false;
  };

  /// Reorder-buffer entry, released in (time, seq) order so replays of
  /// the same event multiset apply identically whatever the arrival
  /// interleaving (the chaos-equivalence invariant). The sort time is
  /// the event's own time — not duplicated here, the entry is copied
  /// around by every heap sift.
  struct Buffered {
    std::uint64_t seq;
    osn::Event event;
    bool operator>(const Buffered& other) const noexcept {
      if (event.time != other.event.time) return event.time > other.event.time;
      return seq > other.seq;
    }
  };

  void ensure(osn::NodeId id);
  void add_edge(osn::NodeId u, osn::NodeId v, graph::Time t);
  /// Registers v as a (possibly) watched friend of u and updates u's
  /// internal link count against the already-watched friends.
  void attach_friend(osn::NodeId u, osn::NodeId v);
  void maybe_flag(osn::NodeId id, graph::Time t);
  /// Dispatches one log-convention event to the on_* handlers (shared
  /// by replay() and the reorder-buffer release path).
  void dispatch(const osn::Event& e);
  /// Structural validation of an untrusted record. Returns true when
  /// the event may be applied; otherwise sets `reason`.
  bool structurally_valid(const osn::Event& e, StreamErrorCode& reason) const;
  /// Accounts for a rejected event (dead-letter queue + counters);
  /// throws StreamError afterwards under the strict policy.
  void quarantine(const osn::Event& e, std::uint64_t seq,
                  StreamErrorCode reason);
  /// Pops the reorder buffer's head, records its (time, seq) in
  /// released_ and applies it (release_ready() and finish()).
  void release_top();
  /// Applies every buffered event at or below the low watermark.
  void release_ready();

  DetectorOptions options_;
  ThresholdDetector detector_;
  std::vector<AccountState> accounts_;
  /// watchers_[v] = accounts whose first-K friend set contains v. Only
  /// membership and list length are read, so a restore rebuilds it from
  /// first_friends in account order.
  std::vector<std::vector<osn::NodeId>> watchers_;
  /// Existing edges, for the internal-link update (canonical u<v keys).
  /// Flat open-addressing set: the ingest hot path probes it per edge
  /// event, and node-based sets cost an allocation per insert.
  FlatSet64 edges_;
  std::vector<FlagRecord> newly_flagged_;
  std::size_t flagged_total_ = 0;

  // ---- hardened-path state ----
  std::priority_queue<Buffered, std::vector<Buffered>, std::greater<>>
      reorder_;
  /// Seqs accepted within the reorder horizon (duplicate detection);
  /// pruned as the low watermark advances past their event time. Always
  /// the disjoint union of the buffered and the released_ seqs, which is
  /// how a checkpoint restore rebuilds it.
  SeqBitSet seen_seqs_;
  /// Released-but-not-yet-pruned (time, seq) pairs, appended as events
  /// leave the reorder buffer — which is already ascending (time, seq)
  /// order, so pruning pops from the front instead of paying a second
  /// per-event heap. Events still buffered need no entry: release (time
  /// <= low) always precedes pruning (time < low) under the same low
  /// watermark, so only released seqs are ever prunable.
  std::deque<std::pair<graph::Time, std::uint64_t>> released_;
  graph::Time high_watermark_;  // max event time accepted so far
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
