// Labeled dataset container for the classifier stack.
//
// Rows are feature vectors (the paper uses 4 behavioral features);
// labels are binary: +1 = Sybil, -1 = normal. In memory only: every
// bench rebuilds its dataset from the simulation it runs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.h"

namespace sybil::ml {

inline constexpr int kSybilLabel = +1;
inline constexpr int kNormalLabel = -1;

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t feature_count) : features_(feature_count) {}

  /// Appends a labeled row. Precondition: row.size() == feature_count().
  void add(std::span<const double> row, int label);

  std::size_t size() const noexcept { return labels_.size(); }
  std::size_t feature_count() const noexcept { return features_; }
  bool empty() const noexcept { return labels_.empty(); }

  std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * features_, features_};
  }
  int label(std::size_t i) const { return labels_.at(i); }

  std::size_t count_label(int label) const noexcept;

  /// Subset by row indices.
  Dataset subset(std::span<const std::size_t> indices) const;

  /// Deterministic in-place row shuffle.
  void shuffle(stats::Rng& rng);

 private:
  std::size_t features_ = 0;
  std::vector<double> data_;  // row-major
  std::vector<int> labels_;
};

}  // namespace sybil::ml
