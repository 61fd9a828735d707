// Append-only event log for the OSN simulator.
//
// The log is optional (the Network works without one) and is what the
// real-time detector pipeline and the examples consume: it is the
// simulated equivalent of the operational request stream Renren gave the
// authors access to.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"

namespace sybil::osn {

enum class EventType : std::uint8_t {
  kAccountCreated,
  kRequestSent,
  kRequestAccepted,
  kRequestRejected,
  kRequestDropped,  // pending request discarded (party banned)
  kAccountBanned,
  kFriendshipSeeded,  // pre-existing edge installed without a request
};

inline constexpr std::size_t kEventTypeCount = 7;

/// True when a raw type byte names a known EventType — the validation
/// hook the hardened ingestion path uses on untrusted records.
constexpr bool event_type_known(std::uint8_t raw) noexcept {
  return raw < kEventTypeCount;
}

/// Relational events involve two distinct parties; account-scoped
/// events (created/banned) legitimately carry actor == subject.
constexpr bool event_is_relational(EventType t) noexcept {
  return t != EventType::kAccountCreated && t != EventType::kAccountBanned;
}

struct Event {
  EventType type;
  graph::NodeId actor;    // who performed the action
  graph::NodeId subject;  // the other party (== actor for account events)
  graph::Time time;
};

/// Stream-clock stamp of an event offered without one: a ShardRouter
/// stamps every copy it routes with the stream clock
/// (core::StreamDetector::ingest); a standalone offer carries this.
inline constexpr graph::Time kNoStamp =
    -std::numeric_limits<graph::Time>::infinity();

/// Simple append-only event log with typed counters.
class EventLog {
 public:
  void append(Event e);

  const std::vector<Event>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  std::uint64_t count(EventType t) const noexcept {
    return counts_[static_cast<std::size_t>(t)];
  }
  void clear();

  /// Largest amount (hours) by which an event's time lags the running
  /// maximum over the log so far — the intrinsic out-of-orderness of
  /// this log (responses are logged at their due time, which can trail
  /// later sends). A reorder watermark at least this wide replays the
  /// log without quarantining anything; the chaos harness sizes
  /// watermarks as max_inversion_hours() + injected skew.
  graph::Time max_inversion_hours() const noexcept;

 private:
  std::vector<Event> events_;
  std::uint64_t counts_[kEventTypeCount] = {};
};

}  // namespace sybil::osn
