// FlatSet64 / SeqBitSet unit suite. Both back the streaming hot path
// (edge dedup and seq dedup respectively), and both have the subtle
// bits worth pinning directly: backward-shift deletion across wrapped
// probe chains, the reserved all-ones key, the bitmap set's word
// sharing and slot reclamation, and exact membership after every
// kind of churn (a dropped key corrupts dedup silently).
#include "core/flat_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "stats/rng.h"

namespace sybil::core {
namespace {

std::vector<std::uint64_t> sorted_contents(const FlatSet64& s) {
  std::vector<std::uint64_t> out;
  s.append_keys(out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> sorted_contents(
    const std::unordered_set<std::uint64_t>& s) {
  std::vector<std::uint64_t> out(s.begin(), s.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// `s` holds exactly the `want` keys: the same size, and every one of
/// them (with equal sizes, nothing else can be present).
template <typename Keys>
void expect_holds_exactly(const SeqBitSet& s, const Keys& want) {
  ASSERT_EQ(s.size(), want.size());
  for (const std::uint64_t q : want) ASSERT_TRUE(s.contains(q)) << "seq " << q;
}

TEST(FlatSet64, HandlesTheReservedAllOnesKey) {
  FlatSet64 s;
  const std::uint64_t all_ones = ~std::uint64_t{0};
  EXPECT_FALSE(s.contains(all_ones));
  EXPECT_TRUE(s.insert(all_ones));
  EXPECT_FALSE(s.insert(all_ones));
  EXPECT_TRUE(s.contains(all_ones));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(sorted_contents(s), std::vector<std::uint64_t>{all_ones});
  EXPECT_EQ(s.erase(all_ones), 1u);
  EXPECT_EQ(s.erase(all_ones), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(SeqBitSet, SequentialAndSparseRoundTrip) {
  SeqBitSet s;
  // A dense run shares words...
  for (std::uint64_t q = 0; q < 1000; ++q) EXPECT_TRUE(s.insert(q));
  for (std::uint64_t q = 0; q < 1000; ++q) EXPECT_FALSE(s.insert(q));
  // ...and sparse outliers (auto-seq range, word boundaries) coexist.
  const std::uint64_t outliers[] = {
      1ull << 63, (1ull << 63) + 1, ~std::uint64_t{0}, 63, 64, 65, 1 << 20};
  for (std::uint64_t q : outliers) s.insert(q);
  EXPECT_EQ(s.size(), 1000u + 4u);  // 63/64/65 were already present
  for (std::uint64_t q = 0; q < 1000; ++q) EXPECT_TRUE(s.contains(q));
  for (std::uint64_t q : outliers) EXPECT_TRUE(s.contains(q));
  EXPECT_FALSE(s.contains(1000));
  EXPECT_FALSE(s.contains((1ull << 63) + 2));
}

TEST(SeqBitSet, EraseReclaimsWordsAndIterationStaysComplete) {
  SeqBitSet s;
  for (std::uint64_t q = 0; q < 256; ++q) s.insert(q);
  // Erase a word-aligned stripe: words [64, 128) empty out entirely and
  // their slots must be reclaimed without breaking later probes.
  for (std::uint64_t q = 64; q < 128; ++q) EXPECT_EQ(s.erase(q), 1u);
  EXPECT_EQ(s.erase(64), 0u);
  EXPECT_EQ(s.size(), 192u);
  std::vector<std::uint64_t> want;
  for (std::uint64_t q = 0; q < 256; ++q) {
    if (q < 64 || q >= 128) want.push_back(q);
  }
  expect_holds_exactly(s, want);
  // The emptied range reinserts cleanly.
  for (std::uint64_t q = 64; q < 128; ++q) EXPECT_TRUE(s.insert(q));
  EXPECT_EQ(s.size(), 256u);
}

TEST(SeqBitSet, ClearResetsEverything) {
  SeqBitSet s;
  for (std::uint64_t q = 0; q < 100; ++q) s.insert(q * 1000);
  s.clear();
  EXPECT_TRUE(s.empty());
  for (std::uint64_t q = 0; q < 100; ++q) EXPECT_FALSE(s.contains(q * 1000));
  EXPECT_TRUE(s.insert(5));
  EXPECT_EQ(s.size(), 1u);
}

/// Randomized differential test against std::unordered_set: the mixed
/// insert/erase/contains stream the detector produces (near-monotone
/// inserts, watermark-ordered erases, occasional duplicates), applied
/// identically to both implementations and to FlatSet64, then a sparse
/// phase with one seq per word, whose erasures empty words and so
/// backward-shift probe chains. Membership of every reference key is
/// checked throughout.
TEST(SeqBitSet, AgreesWithReferenceUnderMixedWorkload) {
  stats::Rng rng(99);
  SeqBitSet bits;
  FlatSet64 flat;
  std::unordered_set<std::uint64_t> ref;
  std::uint64_t frontier = 0;
  for (int step = 0; step < 50000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.6) {
      // Near-monotone insert with occasional duplicates and jitter.
      const std::uint64_t seq =
          frontier + static_cast<std::uint64_t>(rng.uniform() * 40.0) - 20;
      ++frontier;
      const bool fresh = ref.insert(seq).second;
      EXPECT_EQ(bits.insert(seq), fresh) << "seq " << seq;
      EXPECT_EQ(flat.insert(seq), fresh) << "seq " << seq;
    } else if (roll < 0.9) {
      // Erase from the low end, the watermark-prune pattern.
      const std::uint64_t seq =
          static_cast<std::uint64_t>(rng.uniform() * double(frontier + 1));
      const std::size_t n = ref.erase(seq);
      EXPECT_EQ(bits.erase(seq), n) << "seq " << seq;
      EXPECT_EQ(flat.erase(seq), n) << "seq " << seq;
    } else {
      const std::uint64_t seq =
          static_cast<std::uint64_t>(rng.uniform() * double(frontier + 25));
      EXPECT_EQ(bits.contains(seq), ref.count(seq) != 0) << "seq " << seq;
      EXPECT_EQ(flat.contains(seq), ref.count(seq) != 0) << "seq " << seq;
    }
    ASSERT_EQ(bits.size(), ref.size());
    ASSERT_EQ(flat.size(), ref.size());
    if (step % 5000 == 0) expect_holds_exactly(bits, ref);
  }
  expect_holds_exactly(bits, ref);
  EXPECT_EQ(sorted_contents(flat), sorted_contents(ref));

  // Sparse words far above the dense range: each holds a single seq.
  std::vector<std::uint64_t> sparse;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t word =
        (1u << 20) + static_cast<std::uint64_t>(rng.uniform() * 1e6);
    const std::uint64_t seq =
        word * 64 + static_cast<std::uint64_t>(rng.uniform() * 64.0);
    const bool fresh = ref.insert(seq).second;
    ASSERT_EQ(bits.insert(seq), fresh) << "seq " << seq;
    if (fresh) sparse.push_back(seq);
  }
  expect_holds_exactly(bits, ref);
  for (std::size_t i = 0; i < sparse.size(); i += 2) {
    ASSERT_EQ(bits.erase(sparse[i]), ref.erase(sparse[i]));
    if (i % 400 == 0) expect_holds_exactly(bits, ref);
  }
  expect_holds_exactly(bits, ref);
}

}  // namespace
}  // namespace sybil::core
