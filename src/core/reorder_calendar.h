// Calendar reorder buffer: StreamDetector's in-flight events, released
// in ascending (time, seq) order as the low watermark passes them.
//
// A calendar queue (Brown, CACM 1988), also known as a hashed timing
// wheel (Varghese & Lauck, SOSP 1987). Buffered events span at most one
// watermark window W, so a ring of kSpan + slack buckets, each W / kSpan
// of event time wide, covers them. A push appends to its bucket. A pop
// gathers the head bucket once into a run, sorts the run by
// (time, seq), and hands out the run's prefix at or below the low
// watermark. Per event that is an append and an amortized share of one
// small sort, where a heap over the whole window paid two sifts.
//
// Order. An event's bucket key is floor(time * kSpan / W), clamped to
// +-2^62. It is monotone in time, even where the product rounds, so
// every event of a lower key sorts before every event of a higher one,
// and the run's head is the smallest entry held. Whether an entry is
// released is decided by its own time, never by a computed bucket start.
// Seqs are unique, so the (time, seq) release order is total and equals
// a heap's over the same entries.
//
// Storage. Bucket contents live in fixed 2 KB blocks of one contiguous
// slab, addressed by block index; each bucket chains its blocks, and a
// gathered bucket's blocks return to a free list. The slab grows and is
// freed like one vector, so it adds no per-bucket allocations; the
// block size bounds what the partly filled tail blocks hold unused
// (about kSpan half blocks). Keys the ring cannot hold (entries far
// above low + W, or extreme time / W ratios, where rounding stretches
// the span) wait in an overflow list until the ring reaches them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "osn/events.h"

namespace sybil::core {

class ReorderCalendar {
 public:
  /// One buffered event and its transport sequence number.
  struct Entry {
    std::uint64_t seq;
    osn::Event event;
  };

  /// `window` is the watermark W (finite, >= 0). Allocates nothing: the
  /// ring is sized by the first push.
  explicit ReorderCalendar(graph::Time window) noexcept;

  std::size_t size() const noexcept { return size_; }

  /// Smallest seq held, or ~0 when empty. Scans every entry.
  std::uint64_t min_seq() const noexcept;

  /// Buffers `entry`. `low` is the current low watermark: the entry's
  /// time is at or above it, and it is at or above the `low` of every
  /// pop() since the calendar last held nothing.
  void push(const Entry& entry, graph::Time low);

  /// Removes and returns the smallest (time, seq) entry if its time is
  /// at or below `low`; otherwise nullptr. The entry stays valid until
  /// the next call on this calendar.
  const Entry* pop(graph::Time low) {
    if (run_pos_ < run_.size()) {
      return run_[run_pos_].event.time <= low ? take() : nullptr;
    }
    return pop_slow(low);
  }

  /// Drops every entry and the storage.
  void clear() noexcept;

 private:
  /// Buckets per window, and the ring's slack for keys that floor and
  /// rounding push one or two past the span.
  static constexpr std::int64_t kSpan = 256;
  static constexpr std::int64_t kRing = kSpan + 8;
  static constexpr std::uint32_t kBlockEntries = 2048 / sizeof(Entry);
  static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

  /// A bucket's chain of blocks; `fill` entries are used in the tail.
  struct Bucket {
    std::uint32_t head = kNoBlock;
    std::uint32_t tail = kNoBlock;
    std::uint32_t fill = 0;
  };

  const Entry* take() noexcept {
    --size_;
    return &run_[run_pos_++];
  }
  const Entry* pop_slow(graph::Time low);
  std::int64_t key(graph::Time t) const noexcept;
  /// Appends to the ring bucket of key `k`, base_ <= k < base_ + kRing.
  void append(const Entry& entry, std::int64_t k);
  /// Moves the head bucket into run_, sorted, and frees its blocks.
  void gather_head();
  /// Moves the head to key `k` (the next key, or any key when the ring
  /// is empty) and pulls in the overflow entries the ring now covers.
  void advance_to(std::int64_t k);

  graph::Time scale_;  // buckets per hour, kSpan / W; 0 keys all alike
  /// Key of the head bucket, ring_[head_]. Never above the key of any
  /// entry held nor of the low watermark any push may carry.
  std::int64_t base_ = 0;
  std::size_t head_ = 0;
  std::vector<Bucket> ring_;
  std::vector<Entry> slab_;            // kBlockEntries per block
  std::vector<std::uint32_t> next_;    // next block in its bucket's chain
  std::vector<std::uint32_t> free_;    // unused block ids
  std::size_t ring_size_ = 0;          // entries in ring buckets
  /// The head bucket, gathered and sorted; [run_pos_, end) is held.
  /// Pushes to the head key insert in place while it is non-empty.
  std::vector<Entry> run_;
  std::size_t run_pos_ = 0;
  /// Entries with key >= base_ + kRing, and their smallest key.
  std::vector<Entry> overflow_;
  std::int64_t overflow_min_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sybil::core
