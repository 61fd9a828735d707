// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in this library takes an explicit Rng (or a
// 64-bit seed), so that each benchmark and test is reproducible run-to-run
// and across machines. We implement xoshiro256** seeded via splitmix64,
// which is the recommended seeding procedure from the xoshiro authors.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace sybil::stats {

/// Splitmix64 step. Used for seeding and as a cheap standalone mixer.
/// Advances `state` and returns the next 64-bit output.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// Deterministic 64-bit PRNG (xoshiro256**).
///
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can be
/// used with <random> distributions, though the samplers in this library
/// use the member helpers directly for cross-platform determinism
/// (std::*_distribution output is implementation-defined).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1). Uses the top 53 bits.
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Unbiased uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method.
  std::uint64_t uniform_index(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Forks an independent child generator. The child's seed is derived
  /// from this generator's stream, so distinct forks are decorrelated.
  Rng fork() noexcept;

  /// Full 256-bit stream state (the detector-state codec records it).
  std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace sybil::stats
