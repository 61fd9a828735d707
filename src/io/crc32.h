// CRC-32 (IEEE 802.3 polynomial, reflected) for snapshot section
// integrity. A bit flip anywhere in a section payload is detected at
// load time and reported as SnapshotErrorCode::kChecksumMismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sybil::io {

/// CRC of `bytes`, optionally continuing from a previous partial CRC
/// (pass the prior return value to checksum data in chunks).
std::uint32_t crc32(std::span<const std::byte> bytes,
                    std::uint32_t seed = 0) noexcept;

/// CRC of the concatenation A·B from crc32(A), crc32(B) and B's length,
/// without touching the bytes: O(log len_b) GF(2) multiplications
/// (zlib's multmodp/x2nmodp method). A parallel encoder checksums its
/// chunks where it writes them and folds the CRCs in chunk order.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) noexcept;

}  // namespace sybil::io
