// Typed error taxonomy for the streaming ingestion path.
//
// Mirrors io/error.h: where SnapshotError classifies why a *file* was
// rejected, StreamErrorCode classifies why an *event* was quarantined
// by StreamDetector::ingest — so operators can alert on the reason mix
// (a burst of kTimeRegression means a feed replaying stale history; a
// burst of kUnknownEventType means a producer running a newer schema)
// instead of string-matching log lines.
//
// No exception is thrown: each rejected event is quarantined into the
// bounded dead-letter queue with its reason code, and the accounting
// invariant (events_in == applied + deduped + dead-lettered + buffered)
// holds at every instant.
//
// Header-only like io/error.h, and for the same reason: the faults
// layer and the bench runner share the taxonomy without adding link
// dependencies.
#pragma once

#include <cstddef>

namespace sybil::core {

enum class StreamErrorCode {
  kUnknownEventType,  // type byte outside the EventType enum
  kInvalidAccountId,  // actor/subject above the configured account bound
  kSelfReferential,   // relational event with actor == subject
  kNonFiniteTime,     // NaN or infinite timestamp
  kTimeRegression,    // event time below the reorder low watermark
};

/// Number of StreamErrorCode values — sizes the per-reason dead-letter
/// counter array and lets exporters iterate the taxonomy.
inline constexpr std::size_t kStreamErrorCodeCount = 5;

/// Returns a stable identifier ("time-regression", ...) for logging,
/// metrics suffixes and test assertions.
constexpr const char* to_string(StreamErrorCode code) noexcept {
  switch (code) {
    case StreamErrorCode::kUnknownEventType: return "unknown-event-type";
    case StreamErrorCode::kInvalidAccountId: return "invalid-account-id";
    case StreamErrorCode::kSelfReferential: return "self-referential";
    case StreamErrorCode::kNonFiniteTime: return "non-finite-time";
    case StreamErrorCode::kTimeRegression: return "time-regression";
  }
  return "unknown";
}

}  // namespace sybil::core
