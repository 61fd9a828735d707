// Process-level fault channel: torn-write simulation for the crash-
// tolerant service layer's corruption tests (docs/ROBUSTNESS.md
// §Recovery model).
//
// Where FaultInjector corrupts the *transport* (what arrives),
// tear_file_tail() mutilates what *survives*: it cuts a file's tail the
// way a torn write / partial flush would, so recovery code can be
// driven through every corruption shape a real deployment faces,
// deterministically — every choice derives from splitmix64(seed).
// Process death itself is injected one layer down, by io::FaultyVfs
// (a process crash at a chosen storage op), so the service needs no
// test seam of its own.
#pragma once

#include <cstdint>
#include <string>

namespace sybil::faults {

/// What tear_file_tail did to the file.
struct TornTailReport {
  std::uint64_t original_size = 0;
  std::uint64_t new_size = 0;      // after truncation
  std::uint64_t bytes_torn = 0;    // original_size - new_size
  bool bit_flipped = false;        // last surviving byte corrupted too
};

/// Simulates a torn write / partial flush on `path`, deterministically
/// from `seed`: truncates up to `max_tear_bytes` (at least 1) off the
/// tail and, on half of seeds, additionally flips one bit in the last
/// surviving byte — modelling a sector that was partially written
/// rather than cleanly cut. Never leaves the file empty (headers stay;
/// torn *content* is what recovery must handle). Throws
/// std::runtime_error if the file is missing or unwritable.
TornTailReport tear_file_tail(const std::string& path, std::uint64_t seed,
                              std::uint64_t max_tear_bytes = 64);

}  // namespace sybil::faults
