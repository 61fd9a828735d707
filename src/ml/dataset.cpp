#include "ml/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace sybil::ml {

void Dataset::add(std::span<const double> row, int label) {
  if (features_ == 0 && data_.empty()) features_ = row.size();
  if (row.size() != features_) {
    throw std::invalid_argument("dataset: feature count mismatch");
  }
  if (label != kSybilLabel && label != kNormalLabel) {
    throw std::invalid_argument("dataset: label must be +1 or -1");
  }
  data_.insert(data_.end(), row.begin(), row.end());
  labels_.push_back(label);
}

std::size_t Dataset::count_label(int label) const noexcept {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), label));
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(features_);
  for (std::size_t i : indices) {
    if (i >= size()) throw std::out_of_range("dataset: subset index");
    out.add(row(i), label(i));
  }
  return out;
}

void Dataset::shuffle(stats::Rng& rng) {
  for (std::size_t i = size(); i > 1; --i) {
    const std::size_t j = rng.uniform_index(i);
    if (j == i - 1) continue;
    for (std::size_t f = 0; f < features_; ++f) {
      std::swap(data_[(i - 1) * features_ + f], data_[j * features_ + f]);
    }
    std::swap(labels_[i - 1], labels_[j]);
  }
}

}  // namespace sybil::ml
