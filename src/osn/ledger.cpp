#include "osn/ledger.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "io/container.h"

namespace sybil::osn {

void RequestLedger::record_sent(graph::Time t) noexcept {
  // The first send sets every field outright: the -1 defaults are
  // ordinary values to a send at a negative time.
  const bool first = sent_ == 0;
  ++sent_;
  first_send_ = first ? t : std::min(first_send_, t);
  last_send_ = first ? t : std::max(last_send_, t);
  // Clamped so every finite time converts without overflow.
  const auto bucket =
      static_cast<std::int64_t>(std::clamp(std::floor(t), -0x1p62, 0x1p62));
  if (first || bucket != current_bucket_) {
    current_bucket_ = bucket;
    current_bucket_count_ = 0;
    ++active_hours_;
  }
  ++current_bucket_count_;
  max_hourly_ = std::max(max_hourly_, current_bucket_count_);
}

double RequestLedger::short_term_rate() const noexcept {
  if (active_hours_ == 0) return 0.0;
  return static_cast<double>(sent_) / static_cast<double>(active_hours_);
}

double RequestLedger::long_term_rate(double window_hours) const noexcept {
  if (sent_ == 0 || !(window_hours > 0.0)) return 0.0;
  // The effective window is the account's sending lifetime, capped at the
  // requested window — a young account is not diluted by hours it did
  // not exist for.
  const double lifetime = std::max(1.0, last_send_ - first_send_ + 1.0);
  return static_cast<double>(sent_) / std::min(lifetime, window_hours);
}

RequestLedger read_ledger(io::ByteReader& r) {
  RequestLedger ledger;
  RequestLedger::for_each_field(ledger, [&r](auto& v) {
    v = r.read<std::remove_reference_t<decltype(v)>>();
  });
  return ledger;
}

}  // namespace sybil::osn
