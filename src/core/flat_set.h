// Open-addressing set of 64-bit keys for the streaming hot path.
//
// StreamDetector does two set probes per ingested event (sequence dedup
// and edge dedup). node-based std::unordered_set pays a heap allocation
// per insert and a pointer chase per probe; this flat table keeps keys
// in one contiguous power-of-two array with linear probing, so a probe
// is a hash, a mask and a short cache-line scan. Deletion uses backward
// shifting, so no tombstones accumulate (seen_seqs_ is pruned
// continuously as the watermark advances).
//
// The all-ones key (which the detector reserves as a sentinel anyway,
// but edge keys could produce) is representable: it is tracked by a
// side flag instead of occupying a slot, because ~0 marks empty slots.
//
// Key order is unspecified — the one serialization site sorts the keys
// append_keys() hands it (see detector_state.cpp), so checkpoints are
// byte-identical regardless of insertion history.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sybil::core {

class FlatSet64 {
 public:
  FlatSet64() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  void clear() {
    slots_.assign(slots_.size(), kEmpty);
    size_ = 0;
    has_empty_key_ = false;
  }

  void reserve(std::size_t n) {
    // Capacity keeps load factor <= 1/2.
    std::size_t want = 16;
    while (want < n * 2) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  bool contains(std::uint64_t key) const noexcept {
    if (key == kEmpty) return has_empty_key_;
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const std::uint64_t s = slots_[i];
      if (s == key) return true;
      if (s == kEmpty) return false;
    }
  }

  /// Returns true when the key was newly inserted.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) {
      const bool fresh = !has_empty_key_;
      has_empty_key_ = true;
      size_ += fresh ? 1 : 0;
      return fresh;
    }
    if (slots_.size() < (size_ + 1) * 2) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  /// Returns 1 when the key was present and removed, 0 otherwise
  /// (matching std::unordered_set::erase). Backward-shift deletion
  /// keeps probe chains intact without tombstones.
  std::size_t erase(std::uint64_t key) {
    if (key == kEmpty) {
      if (!has_empty_key_) return 0;
      has_empty_key_ = false;
      --size_;
      return 1;
    }
    if (slots_.empty()) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i] != key) {
      if (slots_[i] == kEmpty) return 0;
      i = (i + 1) & mask;
    }
    // Shift the rest of the probe chain back over the hole.
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask; slots_[j] != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t home = hash(slots_[j]) & mask;
      // Move slots_[j] into the hole unless its home position lies
      // (cyclically) after the hole — then it is already reachable.
      const bool movable = hole <= j ? (home <= hole || home > j)
                                     : (home <= hole && home > j);
      if (movable) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --size_;
    return 1;
  }

  /// Appends every stored key to `out` in the unspecified slot order:
  /// one linear pass over the table, for a caller that sorts anyway.
  void append_keys(std::vector<std::uint64_t>& out) const {
    out.reserve(out.size() + size_);
    for (const std::uint64_t s : slots_) {
      if (s != kEmpty) out.push_back(s);
    }
    if (has_empty_key_) out.push_back(kEmpty);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// splitmix64 finalizer: full-avalanche mix so sequential seqs and
  /// packed edge keys spread across the table.
  static std::uint64_t hash(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(new_cap, kEmpty);
    const std::size_t mask = new_cap - 1;
    for (std::uint64_t key : old) {
      if (key == kEmpty) continue;
      std::size_t i = hash(key) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
};

// Set of 64-bit sequence numbers, specialized for the near-monotone
// streams the detector actually sees. Seqs are grouped into 64-wide
// words: the table maps word index -> occupancy bitmask, so 64
// consecutive seqs share one slot (and one cache line) instead of being
// scattered by a full-avalanche hash the way FlatSet64 spreads them.
// A one-entry position cache makes the common case — the next seq lands
// in the same word as the last one — a single compare, no hash at all.
//
// insert/erase/contains match FlatSet64 (insert -> bool, erase -> 0/1).
// There is no iterator: nothing reads the whole set (a checkpoint
// restore rebuilds it through StreamDetector::restore_buffered). The
// probe table stores word_index + 1 so 0 can mark empty slots; word
// indexes top out at 2^58, so the +1 cannot wrap.
class SeqBitSet {
 public:
  SeqBitSet() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  void clear() {
    slots_.assign(slots_.size(), Slot{});
    words_ = 0;
    size_ = 0;
    cached_ = 0;
  }

  /// Sizes the table for roughly `n` seqs assuming moderately dense
  /// packing (a heuristic — growth handles sparser streams).
  void reserve(std::size_t n) {
    std::size_t want = 16;
    while (want < (n / 8 + 1) * 2) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  bool contains(std::uint64_t seq) const noexcept {
    const std::uint64_t wkey = (seq >> 6) + 1;
    const std::uint64_t bit = std::uint64_t{1} << (seq & 63);
    if (slots_.empty()) return false;
    if (slots_[cached_].word == wkey) return (slots_[cached_].bits & bit) != 0;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(wkey) & mask;; i = (i + 1) & mask) {
      if (slots_[i].word == wkey) {
        cached_ = i;
        return (slots_[i].bits & bit) != 0;
      }
      if (slots_[i].word == 0) return false;
    }
  }

  /// Returns true when the seq was newly inserted.
  bool insert(std::uint64_t seq) {
    const std::uint64_t wkey = (seq >> 6) + 1;
    const std::uint64_t bit = std::uint64_t{1} << (seq & 63);
    if (!slots_.empty() && slots_[cached_].word == wkey) {
      if (slots_[cached_].bits & bit) return false;
      slots_[cached_].bits |= bit;
      ++size_;
      return true;
    }
    // Grow for a potential new word before probing (load <= 1/2 on
    // occupied word slots; growing when the word turns out to exist
    // just advances the next rehash, it does not change behaviour).
    if (slots_.size() < (words_ + 1) * 2) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(wkey) & mask;
    while (slots_[i].word != 0) {
      if (slots_[i].word == wkey) {
        cached_ = i;
        if (slots_[i].bits & bit) return false;
        slots_[i].bits |= bit;
        ++size_;
        return true;
      }
      i = (i + 1) & mask;
    }
    slots_[i] = Slot{wkey, bit};
    cached_ = i;
    ++words_;
    ++size_;
    return true;
  }

  /// Returns 1 when the seq was present and removed, 0 otherwise.
  std::size_t erase(std::uint64_t seq) {
    const std::uint64_t wkey = (seq >> 6) + 1;
    const std::uint64_t bit = std::uint64_t{1} << (seq & 63);
    if (slots_.empty()) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(wkey) & mask;
    while (slots_[i].word != wkey) {
      if (slots_[i].word == 0) return 0;
      i = (i + 1) & mask;
    }
    if (!(slots_[i].bits & bit)) return 0;
    slots_[i].bits &= ~bit;
    --size_;
    if (slots_[i].bits == 0) {
      // Backward-shift the probe chain over the emptied word slot.
      std::size_t hole = i;
      for (std::size_t j = (hole + 1) & mask; slots_[j].word != 0;
           j = (j + 1) & mask) {
        const std::size_t home = hash(slots_[j].word) & mask;
        const bool movable = hole <= j ? (home <= hole || home > j)
                                       : (home <= hole && home > j);
        if (movable) {
          slots_[hole] = slots_[j];
          hole = j;
        }
      }
      slots_[hole] = Slot{};
      --words_;
      cached_ = 0;
    }
    return 1;
  }

 private:
  struct Slot {
    std::uint64_t word = 0;  // word index + 1; 0 = empty
    std::uint64_t bits = 0;
  };

  static std::uint64_t hash(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    const std::size_t mask = new_cap - 1;
    for (const Slot& s : old) {
      if (s.word == 0) continue;
      std::size_t i = hash(s.word) & mask;
      while (slots_[i].word != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
    cached_ = 0;
  }

  std::vector<Slot> slots_;
  std::size_t words_ = 0;  // occupied slots (distinct words)
  std::size_t size_ = 0;   // stored seqs (set bits)
  /// Last slot touched; slot 0's word is never equal to a real word key
  /// when it is empty, so a stale cache can only miss, never lie.
  mutable std::size_t cached_ = 0;
};

}  // namespace sybil::core
