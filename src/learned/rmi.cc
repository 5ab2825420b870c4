#include "learned/rmi.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace lsbench {

RmiModel::RmiModel(RmiOptions options) : options_(options) {
  LSBENCH_ASSERT(options_.num_leaf_models >= 1);
  LSBENCH_ASSERT(options_.train_sample_every >= 1);
}

void RmiModel::Clear() {
  n_ = 0;
  root_ = LinearModel{};
  leaf_models_.clear();
  leaf_errors_.clear();
  last_fit_points_ = 0;
}

void RmiModel::Build(const Key* keys, size_t n) {
  Clear();
  ++builds_;
  if (n == 0) return;
  n_ = n;
  root_ = FitLinear(keys, n);
  // Least squares over ascending positions cannot produce a negative slope,
  // but guard against numeric pathologies: a monotone root is required for
  // contiguous leaf ranges.
  if (root_.slope < 0.0) {
    root_.slope = 0.0;
    root_.intercept = static_cast<double>(n) / 2.0;
  }

  const size_t num_leaves = std::min<size_t>(
      static_cast<size_t>(options_.num_leaf_models), std::max<size_t>(n, 1));
  leaf_models_.resize(num_leaves);
  leaf_errors_.assign(num_leaves, 0);

  // Assign keys to leaves with the same formula lookups use; the mapping is
  // monotone, so each leaf covers a contiguous range of positions.
  size_t start = 0;
  for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
    size_t end = start;
    while (end < n && LeafFor(keys[end]) == leaf) ++end;
    // Fit this leaf on its keys (optionally subsampled), targets = global
    // positions.
    const size_t count = end - start;
    if (count == 0) {
      // Empty leaf: inherit a flat model pointing at the boundary.
      leaf_models_[leaf].slope = 0.0;
      leaf_models_[leaf].intercept = static_cast<double>(start);
      leaf_errors_[leaf] = 0;
    } else {
      LinearFitSums fit;
      double last_x = 0.0;
      for (size_t i = start; i < end;
           i += static_cast<size_t>(options_.train_sample_every)) {
        last_x = static_cast<double>(keys[i]);
        fit.Add(last_x, static_cast<double>(i));
      }
      // Always include the last key so the model sees the full span.
      if (fit.count() == 0 ||
          last_x != static_cast<double>(keys[end - 1])) {
        fit.Add(static_cast<double>(keys[end - 1]),
                static_cast<double>(end - 1));
      }
      leaf_models_[leaf] = fit.Fit();
      last_fit_points_ += fit.count();
      // The error bound must be exact over *all* keys (correctness), even
      // when the fit was subsampled (cost).
      uint32_t max_err = 0;
      for (size_t i = start; i < end; ++i) {
        const size_t pred = leaf_models_[leaf].PredictClamped(
            static_cast<double>(keys[i]), n);
        const size_t err = pred > i ? pred - i : i - pred;
        max_err = std::max<uint32_t>(max_err, static_cast<uint32_t>(err));
      }
      leaf_errors_[leaf] = max_err;
    }
    start = end;
  }
  LSBENCH_ASSERT_MSG(start == n, "leaf assignment covered all keys");
}

double RmiModel::model_error() const {
  if (leaf_errors_.empty()) return 0.0;
  double sum = 0.0;
  for (uint32_t e : leaf_errors_) sum += static_cast<double>(e);
  return sum / static_cast<double>(leaf_errors_.size());
}

uint32_t RmiModel::MaxLeafError() const {
  uint32_t max_err = 0;
  for (uint32_t e : leaf_errors_) max_err = std::max(max_err, e);
  return max_err;
}

}  // namespace lsbench
