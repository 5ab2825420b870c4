#include "stats/model.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace lsbench {

size_t LinearModel::PredictClamped(double x, size_t n) const {
  if (n == 0) return 0;
  const double y = Predict(x);
  if (y <= 0.0) return 0;
  const double max_pos = static_cast<double>(n - 1);
  if (y >= max_pos) return n - 1;
  return static_cast<size_t>(y);
}

LinearModel FitLinear(const Key* keys, size_t n) {
  if (n == 0) return LinearModel{};
  // Shift by the first key to keep the arithmetic well-conditioned for
  // large 64-bit keys.
  const double x0 = static_cast<double>(keys[0]);
  LinearFitSums sums;
  for (size_t i = 0; i < n; ++i) {
    sums.Add(static_cast<double>(keys[i]) - x0, static_cast<double>(i));
  }
  LinearModel m = sums.Fit();
  m.intercept -= m.slope * x0;
  return m;
}

LinearModel LinearFitSums::Fit() const {
  LinearModel m;
  if (count_ == 0) return m;
  const double dn = static_cast<double>(count_);
  const double denom = dn * sum_xx_ - sum_x_ * sum_x_;
  if (denom == 0.0 || !std::isfinite(denom)) {
    m.slope = 0.0;
    m.intercept = sum_y_ / dn;
    return m;
  }
  m.slope = (dn * sum_xy_ - sum_x_ * sum_y_) / denom;
  m.intercept = (sum_y_ - m.slope * sum_x_) / dn;
  return m;
}

CdfModel CdfModel::FitFromSorted(const std::vector<Key>& sorted_sample,
                                 int num_knots) {
  LSBENCH_ASSERT(num_knots >= 2);
  CdfModel model;
  if (sorted_sample.empty()) {
    model.knot_keys_ = {0, ~Key{0}};
    model.knot_cdf_ = {0.0, 1.0};
    return model;
  }
  const size_t n = sorted_sample.size();
  model.knot_keys_.reserve(num_knots);
  model.knot_cdf_.reserve(num_knots);
  for (int k = 0; k < num_knots; ++k) {
    const double q = static_cast<double>(k) / (num_knots - 1);
    const size_t idx = std::min<size_t>(
        static_cast<size_t>(q * static_cast<double>(n - 1)), n - 1);
    const Key key = sorted_sample[idx];
    // Keep knots strictly ascending in key; duplicates collapse.
    if (!model.knot_keys_.empty() && key <= model.knot_keys_.back()) {
      model.knot_cdf_.back() = std::max(model.knot_cdf_.back(), q);
      continue;
    }
    model.knot_keys_.push_back(key);
    model.knot_cdf_.push_back(q);
  }
  if (model.knot_keys_.size() == 1) {
    // Single distinct key: make a tiny step.
    model.knot_keys_.push_back(model.knot_keys_[0] + 1);
    model.knot_cdf_ = {0.0, 1.0};
  }
  model.knot_cdf_.front() = 0.0;
  model.knot_cdf_.back() = 1.0;
  return model;
}

double CdfModel::Evaluate(Key key) const {
  if (knot_keys_.empty()) return 0.0;
  if (key <= knot_keys_.front()) return knot_cdf_.front();
  if (key >= knot_keys_.back()) return knot_cdf_.back();
  const size_t hi =
      std::upper_bound(knot_keys_.begin(), knot_keys_.end(), key) -
      knot_keys_.begin();
  const size_t lo = hi - 1;
  const double span =
      static_cast<double>(knot_keys_[hi]) - static_cast<double>(knot_keys_[lo]);
  const double frac =
      span > 0.0
          ? (static_cast<double>(key) - static_cast<double>(knot_keys_[lo])) /
                span
          : 0.0;
  return knot_cdf_[lo] + frac * (knot_cdf_[hi] - knot_cdf_[lo]);
}

Key CdfModel::EvaluateInverse(double q) const {
  if (knot_keys_.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= knot_cdf_.front()) return knot_keys_.front();
  if (q >= knot_cdf_.back()) return knot_keys_.back();
  const size_t hi =
      std::upper_bound(knot_cdf_.begin(), knot_cdf_.end(), q) -
      knot_cdf_.begin();
  const size_t lo = hi - 1;
  const double span = knot_cdf_[hi] - knot_cdf_[lo];
  const double frac = span > 0.0 ? (q - knot_cdf_[lo]) / span : 0.0;
  const double key_span = static_cast<double>(knot_keys_[hi]) -
                          static_cast<double>(knot_keys_[lo]);
  return knot_keys_[lo] + static_cast<Key>(frac * key_span);
}

}  // namespace lsbench
