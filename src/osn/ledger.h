// Per-account friend-request ledger.
//
// Accumulates exactly the counters the paper's real-time detector needs:
// how many requests an account sent / had accepted, received / accepted,
// and the temporal structure of its sending (per-hour buckets) from
// which both the short-window (1 h) and long-window (400 h) invitation
// frequencies of Fig 1 are derived.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"

namespace sybil::io {
class ByteReader;
}  // namespace sybil::io

namespace sybil::osn {

class RequestLedger {
 public:
  /// Records an outgoing friend request at time t (hours).
  void record_sent(graph::Time t) noexcept;
  /// Records that one of this account's outgoing requests was accepted.
  void record_sent_accepted() noexcept { ++sent_accepted_; }
  /// Records an incoming friend request.
  void record_received() noexcept { ++received_; }
  /// Records that this account accepted an incoming request.
  void record_received_accepted() noexcept { ++received_accepted_; }

  std::uint32_t sent() const noexcept { return sent_; }
  std::uint32_t sent_accepted() const noexcept { return sent_accepted_; }
  std::uint32_t received() const noexcept { return received_; }
  std::uint32_t received_accepted() const noexcept {
    return received_accepted_;
  }

  /// Number of distinct 1-hour buckets with at least one outgoing invite.
  std::uint32_t active_hours() const noexcept { return active_hours_; }
  /// Largest number of invites sent within a single 1-hour bucket.
  std::uint32_t max_hourly() const noexcept { return max_hourly_; }
  /// Mean invites per *active* hour: the short-time-scale frequency.
  double short_term_rate() const noexcept;
  /// Mean invites per hour over a window of `window_hours` (Fig 1 uses
  /// 400): the long-time-scale frequency.
  double long_term_rate(double window_hours) const noexcept;

  /// Earliest and latest recorded send times, whatever order the sends
  /// were recorded in (a log need not be time-sorted within an hour).
  graph::Time first_send() const noexcept { return first_send_; }
  graph::Time last_send() const noexcept { return last_send_; }

  /// Visits the full counter state in its encoded order — including
  /// the in-progress hour bucket, which the public accessors fold away
  /// but an exact resume must preserve. The one field list behind
  /// write_ledger, read_ledger and kLedgerBytes.
  template <typename Ledger, typename F>
  static constexpr void for_each_field(Ledger& ledger, F&& f) {
    f(ledger.sent_);
    f(ledger.sent_accepted_);
    f(ledger.received_);
    f(ledger.received_accepted_);
    f(ledger.current_bucket_);
    f(ledger.current_bucket_count_);
    f(ledger.active_hours_);
    f(ledger.max_hourly_);
    f(ledger.first_send_);
    f(ledger.last_send_);
  }

 private:
  std::uint32_t sent_ = 0;
  std::uint32_t sent_accepted_ = 0;
  std::uint32_t received_ = 0;
  std::uint32_t received_accepted_ = 0;

  std::int64_t current_bucket_ = -1;
  std::uint32_t current_bucket_count_ = 0;
  std::uint32_t active_hours_ = 0;
  std::uint32_t max_hourly_ = 0;
  graph::Time first_send_ = -1.0;
  graph::Time last_send_ = -1.0;
};

/// The ledger's checkpoint encoding in the stream-detector state
/// (core/detector_state.cpp): the fields for_each_field visits, in
/// that order, packed, through any writer with a write<T>() (io::
/// ByteWriter or io::SliceWriter). read_ledger throws io::SnapshotError
/// on a truncated input.
template <typename Writer>
void write_ledger(Writer& w, const RequestLedger& ledger) {
  RequestLedger::for_each_field(ledger, [&w](const auto& v) { w.write(v); });
}
RequestLedger read_ledger(io::ByteReader& r);

/// Bytes write_ledger emits per ledger.
inline constexpr std::size_t kLedgerBytes = [] {
  RequestLedger ledger;
  std::size_t n = 0;
  RequestLedger::for_each_field(ledger,
                                [&n](const auto& v) { n += sizeof(v); });
  return n;
}();

}  // namespace sybil::osn
