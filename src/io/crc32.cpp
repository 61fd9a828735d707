#include "io/crc32.h"

#include <array>

namespace sybil::io {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

// Slicing-by-16 tables for the reflected IEEE polynomial 0xEDB88320,
// built at compile time (16 KiB, fits in L1). Slice 0 is the classic
// byte-at-a-time table; slice k advances a byte's contribution past k
// further zero bytes, so one lookup per input byte folds a whole block.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

constexpr std::uint32_t kPoly = 0xEDB88320u;

/// a·b modulo the CRC polynomial, both in the reflected bit order the
/// CRC uses (bit 31 is x^0).
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// kX2n[k] = x^(2^k) modulo the polynomial. x^(2^32) = x modulo it, so
/// 32 entries indexed mod 32 cover every exponent.
using X2nTable = std::array<std::uint32_t, 32>;
constexpr X2nTable make_x2n() {
  X2nTable t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = multmodp(p, p);
  return t;
}

constexpr X2nTable kX2n = make_x2n();

/// x^(n·2^k) modulo the polynomial.
std::uint32_t x2nmodp(std::uint64_t n, unsigned k) noexcept {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if ((n & 1u) != 0) p = multmodp(kX2n[k & 31u], p);
  }
  return p;
}

/// Little-endian load regardless of host order (the CRC is defined on
/// the byte sequence); compilers fold it into one 32-bit load.
inline std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Contribution of 8 bytes (`lo` = bytes 0-3 with the running CRC
/// folded in, `hi` = bytes 4-7) that `skip` more bytes will follow
/// within the same block.
inline std::uint32_t fold8(std::uint32_t lo, std::uint32_t hi,
                           std::size_t skip) noexcept {
  const auto& t = kTables;
  return t[skip + 7][lo & 0xFFu] ^ t[skip + 6][(lo >> 8) & 0xFFu] ^
         t[skip + 5][(lo >> 16) & 0xFFu] ^ t[skip + 4][lo >> 24] ^
         t[skip + 3][hi & 0xFFu] ^ t[skip + 2][(hi >> 8) & 0xFFu] ^
         t[skip + 1][(hi >> 16) & 0xFFu] ^ t[skip][hi >> 24];
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes,
                    std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 16; n -= 16, p += 16) {
    c = fold8(load_le32(p) ^ c, load_le32(p + 4), 8) ^
        fold8(load_le32(p + 8), load_le32(p + 12), 0);
  }
  // One 8-byte step before the byte tail: a 40-byte WAL record body is
  // then two blocks and one step, with no byte-at-a-time work.
  if (n >= 8) {
    c = fold8(load_le32(p) ^ c, load_le32(p + 4), 0);
    n -= 8;
    p += 8;
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) noexcept {
  // Appending len_b bytes multiplies A's CRC by x^(8·len_b); B's own
  // CRC then adds in (the pre- and post-inversions cancel across the
  // seam).
  return multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b;
}

}  // namespace sybil::io
