#include "core/reorder_calendar.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sybil::core {

namespace {

bool earlier(const ReorderCalendar::Entry& a,
             const ReorderCalendar::Entry& b) noexcept {
  if (a.event.time != b.event.time) return a.event.time < b.event.time;
  return a.seq < b.seq;
}

/// Keys are clamped to +-kKeyLimit, so base_ + kRing and the offset of
/// a key from base_ stay far inside int64.
constexpr std::int64_t kKeyLimit = std::int64_t{1} << 62;

}  // namespace

ReorderCalendar::ReorderCalendar(graph::Time window) noexcept
    : scale_(window > 0.0 ? static_cast<graph::Time>(kSpan) / window : 0.0) {
  // W = 0, or a W so small that kSpan / W overflows, keys every entry
  // alike: one bucket, still released in order.
  if (!std::isfinite(scale_)) scale_ = 0.0;
}

std::int64_t ReorderCalendar::key(graph::Time t) const noexcept {
  if (scale_ == 0.0) return 0;
  // Rounded multiplication by a positive constant and floor are both
  // monotone, so the key is too.
  const double q = std::floor(t * scale_);
  if (!(q > -static_cast<double>(kKeyLimit))) return -kKeyLimit;
  if (q >= static_cast<double>(kKeyLimit)) return kKeyLimit;
  return static_cast<std::int64_t>(q);
}

void ReorderCalendar::push(const Entry& entry, graph::Time low) {
  if (size_ == 0) {
    if (ring_.empty()) ring_.resize(kRing);
    base_ = key(low);
    head_ = 0;
    run_.clear();
    run_pos_ = 0;
  }
  ++size_;
  const std::int64_t k = key(entry.event.time);
  assert(k >= base_);
  if (k == base_ && run_pos_ < run_.size()) {
    run_.insert(std::upper_bound(run_.begin() + static_cast<std::ptrdiff_t>(
                                                    run_pos_),
                                 run_.end(), entry, earlier),
                entry);
  } else if (k >= base_ + kRing) {
    if (overflow_.empty() || k < overflow_min_) overflow_min_ = k;
    overflow_.push_back(entry);
  } else {
    append(entry, k);
  }
}

void ReorderCalendar::append(const Entry& entry, std::int64_t k) {
  std::size_t slot = head_ + static_cast<std::size_t>(k - base_);
  if (slot >= static_cast<std::size_t>(kRing)) slot -= kRing;
  Bucket& b = ring_[slot];
  if (b.tail == kNoBlock || b.fill == kBlockEntries) {
    std::uint32_t block;
    if (free_.empty()) {
      block = static_cast<std::uint32_t>(next_.size());
      next_.push_back(kNoBlock);
      slab_.resize(slab_.size() + kBlockEntries);
    } else {
      block = free_.back();
      free_.pop_back();
      next_[block] = kNoBlock;
    }
    (b.tail == kNoBlock ? b.head : next_[b.tail]) = block;
    b.tail = block;
    b.fill = 0;
  }
  slab_[std::size_t{b.tail} * kBlockEntries + b.fill++] = entry;
  ++ring_size_;
}

void ReorderCalendar::gather_head() {
  Bucket& b = ring_[head_];
  run_.clear();
  run_pos_ = 0;
  for (std::uint32_t block = b.head; block != kNoBlock; block = next_[block]) {
    const auto first =
        slab_.begin() + static_cast<std::ptrdiff_t>(block) * kBlockEntries;
    run_.insert(run_.end(), first,
                first + (block == b.tail ? b.fill : kBlockEntries));
    free_.push_back(block);
  }
  ring_size_ -= run_.size();
  b = Bucket{};
  // An in-order feed fills each bucket already sorted.
  if (!std::is_sorted(run_.begin(), run_.end(), earlier)) {
    std::sort(run_.begin(), run_.end(), earlier);
  }
}

void ReorderCalendar::advance_to(std::int64_t k) {
  if (ring_size_ == 0) {
    head_ = 0;
  } else if (++head_ == static_cast<std::size_t>(kRing)) {
    head_ = 0;
  }
  base_ = k;
  if (overflow_.empty() || overflow_min_ >= base_ + kRing) return;
  std::size_t kept = 0;
  std::int64_t kept_min = kKeyLimit;
  for (const Entry& entry : overflow_) {
    const std::int64_t ek = key(entry.event.time);
    if (ek < base_ + kRing) {
      append(entry, ek);
    } else {
      kept_min = std::min(kept_min, ek);
      overflow_[kept++] = entry;
    }
  }
  overflow_.resize(kept);
  overflow_min_ = kept_min;
}

const ReorderCalendar::Entry* ReorderCalendar::pop_slow(graph::Time low) {
  run_.clear();
  run_pos_ = 0;
  if (size_ == 0) return nullptr;
  // Every entry at or below `low` has a key at or below low_key. The
  // head never passes low_key: a later push may carry that key.
  const std::int64_t low_key = key(low);
  while (base_ <= low_key) {
    if (ring_[head_].head != kNoBlock) {
      gather_head();
      return run_.front().event.time <= low ? take() : nullptr;
    }
    if (base_ == low_key) break;
    // An empty ring means only overflow is held: jump instead of
    // stepping through empty keys.
    advance_to(ring_size_ > 0 ? base_ + 1 : std::min(overflow_min_, low_key));
  }
  return nullptr;
}

std::uint64_t ReorderCalendar::min_seq() const noexcept {
  std::uint64_t oldest = ~std::uint64_t{0};
  const auto scan = [&oldest](const Entry* first, const Entry* last) {
    for (; first != last; ++first) oldest = std::min(oldest, first->seq);
  };
  scan(run_.data() + run_pos_, run_.data() + run_.size());
  scan(overflow_.data(), overflow_.data() + overflow_.size());
  for (const Bucket& b : ring_) {
    for (std::uint32_t block = b.head; block != kNoBlock;
         block = next_[block]) {
      const Entry* first = slab_.data() + std::size_t{block} * kBlockEntries;
      scan(first, first + (block == b.tail ? b.fill : kBlockEntries));
    }
  }
  return oldest;
}

void ReorderCalendar::clear() noexcept {
  ring_ = {};
  slab_ = {};
  next_ = {};
  free_ = {};
  run_ = {};
  overflow_ = {};
  ring_size_ = 0;
  run_pos_ = 0;
  size_ = 0;
}

}  // namespace sybil::core
