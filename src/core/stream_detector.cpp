#include "core/stream_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/metrics/instrument.h"

namespace sybil::core {

namespace {

std::uint64_t edge_key(osn::NodeId a, osn::NodeId b) noexcept {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Auto-assigned sequence numbers live in the top half of the u64
/// space so they can never collide with transport offsets/log indices.
constexpr std::uint64_t kAutoSeqBase = std::uint64_t{1} << 63;

}  // namespace

StreamDetector::StreamDetector(const DetectorOptions& options)
    : options_([&] {
        options.validate();  // reject nonsense before any member is built
        return options;
      }()),
      detector_(options.rule),
      reorder_(options.ingest.watermark_hours),
      high_watermark_(-std::numeric_limits<graph::Time>::infinity()),
      next_auto_seq_(kAutoSeqBase) {
  // Pre-register the dead-letter reason counters so every metrics
  // export carries the full reason breakdown (zeros included) — a
  // dashboard can tell "no dead letters" from "counter never existed",
  // and the shed/deadletter tiers stay distinguishable.
  SYBIL_METRIC_COUNT("stream.deadletter.total", 0);
  SYBIL_METRIC_COUNT("stream.deadletter.unknown_event_type", 0);
  SYBIL_METRIC_COUNT("stream.deadletter.invalid_account_id", 0);
  SYBIL_METRIC_COUNT("stream.deadletter.self_referential", 0);
  SYBIL_METRIC_COUNT("stream.deadletter.non_finite_time", 0);
  SYBIL_METRIC_COUNT("stream.deadletter.time_regression", 0);
  SYBIL_METRIC_COUNT("stream.deadletter.dropped", 0);
}

void StreamDetector::ensure(osn::NodeId id) {
  if (id >= accounts_.size()) {
    accounts_.resize(id + 1);
    watchers_.resize(id + 1);
    SYBIL_METRIC_GAUGE_SET("stream.accounts_seen", accounts_.size());
  }
}

void StreamDetector::apply(const osn::Event& e) {
  if (e.type == osn::EventType::kAccountCreated ||
      e.type == osn::EventType::kRequestDropped) {
    return;  // no feature effect, no counter
  }
  if (e.type == osn::EventType::kAccountBanned) {
    SYBIL_METRIC_COUNT("stream.events.account_banned", 1);
    ensure(e.actor);
    accounts_[e.actor].banned = true;
    return;
  }
  // Log convention: an answer's actor is the account that answered, so
  // the request's sender is its subject.
  const bool answer = e.type == osn::EventType::kRequestAccepted ||
                      e.type == osn::EventType::kRequestRejected;
  const osn::NodeId from = answer ? e.subject : e.actor;
  const osn::NodeId to = answer ? e.actor : e.subject;
  const graph::Time t = e.time;
  ensure(std::max(from, to));
  // A party banned before this event is frozen; the live side updates.
  const bool from_banned = accounts_[from].banned;
  const bool to_banned = accounts_[to].banned;
  if (from_banned || to_banned) {
    ++banned_party_total_;
    SYBIL_METRIC_COUNT("stream.events.banned_party", 1);
  }
  switch (e.type) {
    case osn::EventType::kRequestSent:
      SYBIL_METRIC_COUNT("stream.events.request_sent", 1);
      if (!from_banned) accounts_[from].ledger.record_sent(t);
      if (!to_banned) accounts_[to].ledger.record_received();
      maybe_flag(from, t);
      break;
    case osn::EventType::kRequestRejected:
      SYBIL_METRIC_COUNT("stream.events.request_rejected", 1);
      // Rejection changes no counter (the ledger tracks sent vs
      // accepted), but it is the moment the outgoing ratio's shortfall
      // becomes observable — re-check the sender.
      maybe_flag(from, t);
      break;
    case osn::EventType::kRequestAccepted:
      SYBIL_METRIC_COUNT("stream.events.request_accepted", 1);
      if (!from_banned) accounts_[from].ledger.record_sent_accepted();
      if (!to_banned) accounts_[to].ledger.record_received_accepted();
      // No friendship materializes with a banned party: the platform
      // removes a banned account's edges, so installing one would leak
      // state the batch path can never see.
      if (!from_banned && !to_banned) add_edge(from, to, t);
      maybe_flag(from, t);
      maybe_flag(to, t);
      break;
    case osn::EventType::kFriendshipSeeded:  // a pre-existing friendship
      SYBIL_METRIC_COUNT("stream.events.friendship", 1);
      if (!from_banned && !to_banned) {
        add_edge(from, to, t);
        // First-friend growth moves both endpoints' clustering, and no
        // maybe_flag follows a seeded friendship: the next sweep does.
        mark_dirty(from);
        mark_dirty(to);
      }
      break;
    default:  // the kinds returned above
      break;
  }
}

void StreamDetector::attach_friend(osn::NodeId u, osn::NodeId v) {
  AccountState& acc = accounts_[u];
  if (acc.first_friends.size() >= kFirstFriends) return;
  // Count existing links between the newcomer and the already-watched
  // friends before inserting.
  for (osn::NodeId f : acc.first_friends) {
    if (edges_.contains(edge_key(f, v))) ++acc.internal_links;
  }
  acc.first_friends.push_back(v);
  watchers_[v].push_back(u);
}

void StreamDetector::add_edge(osn::NodeId u, osn::NodeId v, graph::Time) {
  if (u == v || !edges_.insert(edge_key(u, v))) return;

  // Accounts (other than the endpoints) watching BOTH endpoints gain an
  // internal link. Scan the smaller watcher list. A gain only raises a
  // watcher's clustering, which cannot newly satisfy the rule's
  // clustering < clustering_max, so no watcher needs a re-check.
  const auto& wa = watchers_[u].size() <= watchers_[v].size() ? watchers_[u]
                                                              : watchers_[v];
  const osn::NodeId other =
      watchers_[u].size() <= watchers_[v].size() ? v : u;
  for (osn::NodeId w : wa) {
    if (w == u || w == v) continue;
    const auto& friends = accounts_[w].first_friends;
    if (std::find(friends.begin(), friends.end(), other) != friends.end()) {
      ++accounts_[w].internal_links;
    }
  }

  attach_friend(u, v);
  attach_friend(v, u);
}

SybilFeatures StreamDetector::features(osn::NodeId account) const {
  SybilFeatures f;
  if (account >= accounts_.size()) {
    f.outgoing_accept_ratio = 1.0;
    f.incoming_accept_ratio = 1.0;
    return f;
  }
  const AccountState& acc = accounts_[account];
  f.invite_rate_short = acc.ledger.short_term_rate();
  f.invite_rate_long = acc.ledger.long_term_rate(400.0);
  f.outgoing_accept_ratio =
      acc.ledger.sent() == 0
          ? 1.0
          : static_cast<double>(acc.ledger.sent_accepted()) /
                static_cast<double>(acc.ledger.sent());
  f.incoming_accept_ratio =
      acc.ledger.received() == 0
          ? 1.0
          : static_cast<double>(acc.ledger.received_accepted()) /
                static_cast<double>(acc.ledger.received());
  const auto n = static_cast<double>(acc.first_friends.size());
  f.clustering_coefficient =
      n < 2.0 ? 0.0
              : 2.0 * static_cast<double>(acc.internal_links) /
                    (n * (n - 1.0));
  return f;
}

void StreamDetector::maybe_flag(osn::NodeId id, graph::Time t) {
  AccountState& acc = accounts_[id];
  if (acc.flagged || acc.banned) return;
  const SybilFeatures f = features(id);
  if (detector_.is_sybil(f, acc.ledger.sent())) {
    acc.flagged = true;
    ++flagged_total_;
    newly_flagged_.push_back(FlagRecord{id, f, t});
    SYBIL_METRIC_COUNT("stream.flagged", 1);
  }
}

FlagBatch StreamDetector::take_flagged() {
  FlagBatch out;
  out.records.swap(newly_flagged_);
  return out;
}

void StreamDetector::mark_dirty(osn::NodeId id) {
  AccountState& acc = accounts_[id];
  if (acc.dirty) return;
  acc.dirty = true;
  dirty_.push_back(id);
}

// Why re-checking only dirty_ flags exactly what a scan of every
// account would. Features read no clock, so a verdict changes only with
// the rule's inputs: the sent and accepted counts, the first friends
// and the links among them. apply() calls maybe_flag on an account
// after every such change except two. First-friend growth on both
// endpoints of a seeded friendship marks them dirty. The internal-link
// gain of the watchers add_edge scans marks nothing: it only raises a
// watcher's clustering coefficient, and the rule flags on clustering
// below clustering_max, so a watcher that did not flag before the gain
// cannot flag after it. Every other account was last evaluated (by
// apply() or an earlier sweep) with the inputs it has now, or with a
// lower clustering only, is zero-state since ensure() (an outgoing
// ratio of 1.0 is never below a validated outgoing_accept_max <= 1), or
// is flagged or banned, which maybe_flag skips. A full scan would flag
// none of them, so sweeping the dirty ids in ascending order yields the
// same FlagBatch, in the same order, with the same flagged_at. A
// restore marks every account (detector_state.cpp): a superset.
std::size_t StreamDetector::sweep_flags(graph::Time now) {
  SYBIL_METRIC_SCOPED_TIMER(span, "stream.sweep_flags");
  SYBIL_METRIC_COUNT("stream.sweep.evaluated", dirty_.size());
  const std::size_t before = newly_flagged_.size();
  std::sort(dirty_.begin(), dirty_.end());
  for (osn::NodeId id : dirty_) {
    accounts_[id].dirty = false;
    maybe_flag(id, now);
  }
  dirty_.clear();
  return newly_flagged_.size() - before;
}

bool StreamDetector::structurally_valid(const osn::Event& e,
                                        const IngestOptions& ingest,
                                        StreamErrorCode& reason) noexcept {
  if (!osn::event_type_known(static_cast<std::uint8_t>(e.type))) {
    reason = StreamErrorCode::kUnknownEventType;
    return false;
  }
  if (!std::isfinite(e.time)) {
    reason = StreamErrorCode::kNonFiniteTime;
    return false;
  }
  if (e.actor > ingest.max_account_id || e.subject > ingest.max_account_id) {
    reason = StreamErrorCode::kInvalidAccountId;
    return false;
  }
  if (osn::event_is_relational(e.type) && e.actor == e.subject) {
    reason = StreamErrorCode::kSelfReferential;
    return false;
  }
  return true;
}

void StreamDetector::quarantine(const osn::Event& e, std::uint64_t seq,
                                StreamErrorCode reason) {
  ++deadletter_total_;
  ++deadletter_by_reason_[static_cast<std::size_t>(reason)];
  SYBIL_METRIC_COUNT("stream.deadletter.total", 1);
  switch (reason) {
    case StreamErrorCode::kUnknownEventType:
      SYBIL_METRIC_COUNT("stream.deadletter.unknown_event_type", 1);
      break;
    case StreamErrorCode::kInvalidAccountId:
      SYBIL_METRIC_COUNT("stream.deadletter.invalid_account_id", 1);
      break;
    case StreamErrorCode::kSelfReferential:
      SYBIL_METRIC_COUNT("stream.deadletter.self_referential", 1);
      break;
    case StreamErrorCode::kNonFiniteTime:
      SYBIL_METRIC_COUNT("stream.deadletter.non_finite_time", 1);
      break;
    case StreamErrorCode::kTimeRegression:
      SYBIL_METRIC_COUNT("stream.deadletter.time_regression", 1);
      break;
  }
  if (dead_letters_.size() >= kDeadLetterCapacity) {
    dead_letters_.pop_front();
    ++dead_letters_dropped_;
    SYBIL_METRIC_COUNT("stream.deadletter.dropped", 1);
  }
  dead_letters_.push_back(DeadLetter{e, seq, reason});
}

void StreamDetector::release(const ReorderCalendar::Entry& b) {
  const std::pair entry{b.event.time, b.seq};
  if (released_.empty() || released_.back() <= entry) {
    released_.push_back(entry);
  } else {
    released_.insert(
        std::upper_bound(released_.begin(), released_.end(), entry), entry);
  }
  ++applied_total_;
  SYBIL_METRIC_COUNT("stream.ingest.applied", 1);
  apply(b.event);
}

void StreamDetector::release_ready() {
  const graph::Time low = low_watermark();
  while (const ReorderCalendar::Entry* b = reorder_.pop(low)) release(*b);
  // Prune duplicate-detection state that the watermark has passed: a
  // redelivery of a pruned seq necessarily carries an event time below
  // the low watermark and is quarantined as kTimeRegression before the
  // dedup check can matter. The calendar releases in ascending
  // (time, seq) order and release() keeps released_ sorted, so the
  // prunable prefix sits at its front.
  while (!released_.empty() && released_.front().first < low) {
    seen_seqs_.erase(released_.front().second);
    released_.pop_front();
  }
}

void StreamDetector::ingest(const osn::Event& e, std::uint64_t seq,
                            graph::Time stamp) {
  ++events_in_;
  SYBIL_METRIC_COUNT("stream.ingest.events_in", 1);
  if (seq == kAutoSeq) seq = next_auto_seq_++;
  // The fleet's clock first: a shard that owns neither party of the
  // newest events still moves its watermark with them, so the checks
  // below see the low watermark a single detector fed every event would.
  if (stamp > high_watermark_) {
    high_watermark_ = stamp;
    release_ready();
  }
  StreamErrorCode reason;
  if (!structurally_valid(e, options_.ingest, reason)) {
    quarantine(e, seq, reason);
    return;
  }
  // One probe does dedup-check and accept: a false return is exactly
  // the old contains() hit. The insert is undone on the (rare) time-
  // regression path below, so a quarantined seq is never remembered.
  if (!seen_seqs_.insert(seq)) {
    ++deduped_total_;
    SYBIL_METRIC_COUNT("stream.ingest.deduped", 1);
    return;
  }
  // Before any event is accepted the high watermark is -inf, so the
  // low watermark is -inf too and no finite time can regress past it.
  if (e.time < low_watermark()) {
    seen_seqs_.erase(seq);
    quarantine(e, seq, StreamErrorCode::kTimeRegression);
    return;
  }
  // Raise the watermark and release before `e` joins the calendar, so
  // the calendar holds only entries above the new low watermark when it
  // does. `e` is due at once only when it ties the low watermark (or
  // W = 0); every entry still held sorts after it, so it applies next,
  // as it would from the buffer.
  if (e.time > high_watermark_) high_watermark_ = e.time;
  release_ready();
  if (e.time <= low_watermark()) {
    release(ReorderCalendar::Entry{seq, e});
  } else {
    reorder_.push(ReorderCalendar::Entry{seq, e}, low_watermark());
  }
  SYBIL_METRIC_GAUGE_SET("stream.ingest.buffered", reorder_.size());
}

void StreamDetector::finish() {
  constexpr graph::Time kEnd = std::numeric_limits<graph::Time>::infinity();
  while (const ReorderCalendar::Entry* b = reorder_.pop(kEnd)) release(*b);
  SYBIL_METRIC_GAUGE_SET("stream.ingest.buffered", 0);
}

std::uint64_t StreamDetector::oldest_buffered_seq() const noexcept {
  return reorder_.min_seq();
}

void StreamDetector::restore_buffered(const osn::Event& e, std::uint64_t seq) {
  // A valid event at or below the low watermark was released or was a
  // time regression: release_ready() ran after every watermark rise.
  StreamErrorCode reason;
  if (!structurally_valid(e, options_.ingest, reason) ||
      e.time <= low_watermark() ||
      !seen_seqs_.insert(seq)) {
    return;
  }
  reorder_.push(ReorderCalendar::Entry{seq, e}, low_watermark());
}

}  // namespace sybil::core
