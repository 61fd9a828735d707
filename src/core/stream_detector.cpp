#include "core/stream_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

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

void StreamDetector::on_request_sent(osn::NodeId from, osn::NodeId to,
                                     graph::Time t) {
  SYBIL_METRIC_COUNT("stream.events.request_sent", 1);
  ensure(std::max(from, to));
  const bool from_banned = accounts_[from].banned;
  const bool to_banned = accounts_[to].banned;
  if (from_banned || to_banned) {
    ++banned_party_total_;
    SYBIL_METRIC_COUNT("stream.events.banned_party", 1);
  }
  if (!from_banned) accounts_[from].ledger.record_sent(t);
  if (!to_banned) accounts_[to].ledger.record_received();
  maybe_flag(from, t);
}

void StreamDetector::on_request_rejected(osn::NodeId from, osn::NodeId to,
                                         graph::Time t) {
  SYBIL_METRIC_COUNT("stream.events.request_rejected", 1);
  ensure(std::max(from, to));
  if (accounts_[from].banned || accounts_[to].banned) {
    ++banned_party_total_;
    SYBIL_METRIC_COUNT("stream.events.banned_party", 1);
  }
  // Rejection changes no counter (the ledger tracks sent vs accepted),
  // but it is the moment the outgoing ratio's shortfall becomes
  // observable — re-check the sender.
  maybe_flag(from, t);
}

void StreamDetector::on_request_accepted(osn::NodeId from, osn::NodeId to,
                                         graph::Time t) {
  SYBIL_METRIC_COUNT("stream.events.request_accepted", 1);
  ensure(std::max(from, to));
  const bool from_banned = accounts_[from].banned;
  const bool to_banned = accounts_[to].banned;
  if (from_banned || to_banned) {
    ++banned_party_total_;
    SYBIL_METRIC_COUNT("stream.events.banned_party", 1);
  }
  if (!from_banned) accounts_[from].ledger.record_sent_accepted();
  if (!to_banned) accounts_[to].ledger.record_received_accepted();
  // No friendship materializes with a banned party: the platform
  // removes a banned account's edges, so installing one would leak
  // state the batch path can never see.
  if (!from_banned && !to_banned) add_edge(from, to, t);
  maybe_flag(from, t);
  maybe_flag(to, t);
}

void StreamDetector::on_friendship(osn::NodeId u, osn::NodeId v,
                                   graph::Time t) {
  SYBIL_METRIC_COUNT("stream.events.friendship", 1);
  ensure(std::max(u, v));
  if (accounts_[u].banned || accounts_[v].banned) {
    ++banned_party_total_;
    SYBIL_METRIC_COUNT("stream.events.banned_party", 1);
    return;
  }
  add_edge(u, v, t);
}

void StreamDetector::on_account_banned(osn::NodeId who) {
  SYBIL_METRIC_COUNT("stream.events.account_banned", 1);
  ensure(who);
  accounts_[who].banned = true;
}

void StreamDetector::attach_friend(osn::NodeId u, osn::NodeId v) {
  AccountState& acc = accounts_[u];
  if (acc.first_friends.size() >= options_.first_friends) return;
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
  // internal link. Scan the smaller watcher list.
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

std::size_t StreamDetector::sweep_flags(graph::Time now) {
  SYBIL_METRIC_SCOPED_TIMER(span, "stream.sweep_flags");
  const std::size_t before = newly_flagged_.size();
  for (osn::NodeId id = 0; id < accounts_.size(); ++id) {
    maybe_flag(id, now);
  }
  return newly_flagged_.size() - before;
}

void StreamDetector::dispatch(const osn::Event& e) {
  switch (e.type) {
    case osn::EventType::kRequestSent:
      on_request_sent(e.actor, e.subject, e.time);
      break;
    case osn::EventType::kRequestAccepted:
      // Log convention: actor = target (who accepted), subject = sender.
      on_request_accepted(e.subject, e.actor, e.time);
      break;
    case osn::EventType::kRequestRejected:
      on_request_rejected(e.subject, e.actor, e.time);
      break;
    case osn::EventType::kFriendshipSeeded:
      on_friendship(e.actor, e.subject, e.time);
      break;
    case osn::EventType::kAccountBanned:
      on_account_banned(e.actor);
      break;
    case osn::EventType::kAccountCreated:
    case osn::EventType::kRequestDropped:
      break;  // no feature effect, no counter — matches the live path,
              // which has no handler for these event types either
  }
}

void StreamDetector::replay(const osn::EventLog& log) {
  SYBIL_METRIC_SCOPED_TIMER(span, "stream.replay");
  for (const osn::Event& e : log.events()) dispatch(e);
}

bool StreamDetector::structurally_valid(const osn::Event& e,
                                        StreamErrorCode& reason) const {
  if (!osn::event_type_known(static_cast<std::uint8_t>(e.type))) {
    reason = StreamErrorCode::kUnknownEventType;
    return false;
  }
  if (!std::isfinite(e.time)) {
    reason = StreamErrorCode::kNonFiniteTime;
    return false;
  }
  if (e.actor > options_.ingest.max_account_id ||
      e.subject > options_.ingest.max_account_id) {
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
  if (options_.ingest.dead_letter_capacity == 0) {
    ++dead_letters_dropped_;
    SYBIL_METRIC_COUNT("stream.deadletter.dropped", 1);
  } else {
    if (dead_letters_.size() >= options_.ingest.dead_letter_capacity) {
      dead_letters_.pop_front();
      ++dead_letters_dropped_;
      SYBIL_METRIC_COUNT("stream.deadletter.dropped", 1);
    }
    dead_letters_.push_back(DeadLetter{e, seq, reason});
  }
  if (options_.ingest.policy == IngestPolicy::kStrict) {
    throw StreamError(reason,
                      "event seq " + std::to_string(seq) + " (type " +
                          std::to_string(static_cast<unsigned>(e.type)) +
                          ", t=" + std::to_string(e.time) + ") rejected");
  }
}

void StreamDetector::release_top() {
  const Buffered b = reorder_.top();
  reorder_.pop();
  released_.emplace_back(b.event.time, b.seq);
  ++applied_total_;
  SYBIL_METRIC_COUNT("stream.ingest.applied", 1);
  dispatch(b.event);
}

void StreamDetector::release_ready() {
  const graph::Time low = high_watermark_ - options_.ingest.watermark_hours;
  while (!reorder_.empty() && reorder_.top().event.time <= low) {
    release_top();
  }
  // Prune duplicate-detection state that the watermark has passed: a
  // redelivery of a pruned seq necessarily carries an event time below
  // the low watermark and is quarantined as kTimeRegression before the
  // dedup check can matter. Releases come out of the heap in ascending
  // (time, seq) order, so released_ is sorted and the prunable prefix
  // sits at its front.
  while (!released_.empty() && released_.front().first < low) {
    seen_seqs_.erase(released_.front().second);
    released_.pop_front();
  }
}

void StreamDetector::ingest(const osn::Event& e, std::uint64_t seq) {
  ++events_in_;
  SYBIL_METRIC_COUNT("stream.ingest.events_in", 1);
  if (seq == kAutoSeq) seq = next_auto_seq_++;
  StreamErrorCode reason;
  if (!structurally_valid(e, reason)) {
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
  if (e.time < high_watermark_ - options_.ingest.watermark_hours) {
    seen_seqs_.erase(seq);
    quarantine(e, seq, StreamErrorCode::kTimeRegression);
    return;
  }
  reorder_.push(Buffered{seq, e});
  if (e.time > high_watermark_) high_watermark_ = e.time;
  release_ready();
  SYBIL_METRIC_GAUGE_SET("stream.ingest.buffered", reorder_.size());
}

void StreamDetector::finish() {
  while (!reorder_.empty()) release_top();
  SYBIL_METRIC_GAUGE_SET("stream.ingest.buffered", 0);
}

}  // namespace sybil::core
