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

}  // namespace sybil::io
