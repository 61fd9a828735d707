// io::crc32 unit suite. Every checksum on disk (container tables and
// payloads, WAL records) comes from this one function, so it is pinned
// against the standard check value, a bitwise reference over every
// length and alignment the sliced loop distinguishes, chunked
// continuation, and the records of the v1 WAL segment docs/FORMATS.md
// once dissected (tests/io/wal_format_test.cpp keeps it, refused).
// crc32_combine, which folds the stream-state encoder's chunk CRCs, is
// pinned against crc32 of the concatenation over random splits, and by
// associativity at lengths no buffer can hold.
#include "io/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace sybil::io {
namespace {

std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320, init and xor-out all
/// ones): the definition, with no tables to get wrong.
std::uint32_t bitwise_crc32(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> from_hex(std::string_view hex) {
  std::vector<std::byte> out;
  const auto nibble = [](char ch) {
    return static_cast<unsigned>(ch <= '9' ? ch - '0' : ch - 'a' + 10);
  };
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::byte>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::array<std::byte, 300 + 8> buf;
  std::uint32_t x = 0x12345678u;
  for (std::byte& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::byte> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), bitwise_crc32(s))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ContinuingFromASeedEqualsOneShot) {
  std::vector<std::byte> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7 + 3);
  }
  const std::uint32_t whole = crc32(data);
  const std::size_t splits[] = {0, 1, 7, 8, 9, 63, 500, 999, 1000};
  for (const std::size_t split : splits) {
    const std::span<const std::byte> all(data);
    const std::uint32_t head = crc32(all.first(split));
    EXPECT_EQ(crc32(all.subspan(split), head), whole) << "split " << split;
  }
}

// The three 40-byte record bodies of that v1 segment;
// each record's stored CRC (little-endian on disk) covers its body.
TEST(Crc32, ReproducesTheWorkedWalRecords) {
  EXPECT_EQ(crc32(from_hex("0000000000000000000000000000000000000000"
                           "0000f83f07000000090000000100000000000000")),
            0xca34bb5cu);  // 5c bb 34 ca
  EXPECT_EQ(crc32(from_hex("0100000000000000010000000000000000000000"
                           "000000400b0000000b0000000000000003000000")),
            0xd3c8eff5u);  // f5 ef c8 d3
  EXPECT_EQ(crc32(from_hex("0200000000000000020000000000000000000000"
                           "0000044009000000090000000500000000000000")),
            0x0a0d9ab2u);  // b2 9a 0d 0a
}

// Random cut points, duplicates included, so pieces come out empty, a
// few bytes long or anything in between — mostly not multiples of 16.
TEST(Crc32Combine, RandomSplitsCombineToTheWholeCrc) {
  std::vector<std::byte> data(4099);
  std::uint32_t x = 0x2545F491u;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return x;
  };
  for (std::byte& b : data) b = static_cast<std::byte>(next());
  const std::span<const std::byte> all(data);
  const std::uint32_t whole = crc32(all);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::size_t> cuts{0, data.size()};
    const std::size_t n_cuts = next() % 12;
    for (std::size_t k = 0; k < n_cuts; ++k) {
      cuts.push_back(next() % (data.size() + 1));
    }
    if (trial % 3 == 0) cuts.push_back(cuts.back());  // an empty piece
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t crc = 0;  // crc32 of nothing
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      const auto piece = all.subspan(cuts[k], cuts[k + 1] - cuts[k]);
      crc = crc32_combine(crc, crc32(piece), piece.size());
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST(Crc32Combine, EmptyPiecesAreIdentities) {
  const std::uint32_t a = crc32(as_bytes("sybil"));
  EXPECT_EQ(crc32_combine(a, crc32({}), 0), a);
  EXPECT_EQ(crc32_combine(crc32({}), a, 5), a);
}

// (A·B)·C == A·(B·C) with B and C longer than 2^32 bytes: the exponent
// table wraps (x^(2^32) = x), which only such lengths reach.
TEST(Crc32Combine, IsAssociativeAtLengthsPastFourGiB) {
  const std::uint32_t a = crc32(as_bytes("head"));
  const std::uint32_t b = crc32(as_bytes("middle"));
  const std::uint32_t c = crc32(as_bytes("tail"));
  const std::uint64_t lengths[][2] = {
      {(std::uint64_t{1} << 32) + 12345, (std::uint64_t{1} << 33) + 7},
      {(std::uint64_t{1} << 40) + 1, (std::uint64_t{1} << 32)},
      {~std::uint64_t{0} >> 2, (std::uint64_t{3} << 35) + 15},
  };
  for (const auto& [len_b, len_c] : lengths) {
    EXPECT_EQ(crc32_combine(crc32_combine(a, b, len_b), c, len_c),
              crc32_combine(a, crc32_combine(b, c, len_c), len_b + len_c))
        << len_b << " + " << len_c;
  }
}

}  // namespace
}  // namespace sybil::io
