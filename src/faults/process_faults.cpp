#include "faults/process_faults.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/metrics/instrument.h"

namespace sybil::faults {

namespace fs = std::filesystem;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

TornTailReport tear_file_tail(const std::string& path, std::uint64_t seed,
                              std::uint64_t max_tear_bytes) {
  std::error_code ec;
  const std::uint64_t size = fs::file_size(path, ec);
  if (ec) throw std::runtime_error("tear_file_tail: cannot stat " + path);
  if (size < 2) {
    throw std::runtime_error("tear_file_tail: " + path +
                             " too small to tear");
  }

  std::uint64_t state = seed;
  TornTailReport report;
  report.original_size = size;
  const std::uint64_t bound =
      std::min<std::uint64_t>(max_tear_bytes, size - 1);
  report.bytes_torn = 1 + splitmix64(state) % bound;
  report.new_size = size - report.bytes_torn;
  fs::resize_file(path, report.new_size, ec);
  if (ec) throw std::runtime_error("tear_file_tail: cannot truncate " + path);

  if (splitmix64(state) % 2 == 0) {
    // Half of seeds also corrupt the last surviving byte: a sector the
    // disk half-wrote rather than cleanly cut.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr) {
      throw std::runtime_error("tear_file_tail: cannot open " + path);
    }
    unsigned char byte = 0;
    bool ok = std::fseek(f, static_cast<long>(report.new_size - 1),
                         SEEK_SET) == 0 &&
              std::fread(&byte, 1, 1, f) == 1;
    if (ok) {
      byte ^= static_cast<unsigned char>(1u << (splitmix64(state) % 8));
      ok = std::fseek(f, static_cast<long>(report.new_size - 1), SEEK_SET) ==
               0 &&
           std::fwrite(&byte, 1, 1, f) == 1;
    }
    std::fclose(f);
    if (!ok) {
      throw std::runtime_error("tear_file_tail: cannot corrupt " + path);
    }
    report.bit_flipped = true;
  }
  SYBIL_METRIC_COUNT("faults.torn_tails", 1);
  return report;
}

}  // namespace sybil::faults
