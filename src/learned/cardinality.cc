#include "learned/cardinality.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/random.h"

namespace lsbench {

double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return std::max(e / t, t / e);
}

EquiDepthHistogram::EquiDepthHistogram(std::span<const Key> sorted_keys,
                                       int num_buckets) {
  LSBENCH_ASSERT(num_buckets >= 1);
  total_keys_ = sorted_keys.size();
  if (sorted_keys.empty()) {
    boundaries_ = {0, 1};
    keys_per_bucket_ = 0.0;
    return;
  }
  const size_t n = sorted_keys.size();
  const size_t buckets = std::min<size_t>(num_buckets, n);
  keys_per_bucket_ = static_cast<double>(n) / static_cast<double>(buckets);
  boundaries_.reserve(buckets + 1);
  for (size_t b = 0; b < buckets; ++b) {
    const size_t idx = static_cast<size_t>(
        static_cast<double>(b) * keys_per_bucket_);
    const Key key = sorted_keys[std::min(idx, n - 1)];
    if (!boundaries_.empty() && key <= boundaries_.back()) continue;
    boundaries_.push_back(key);
  }
  const Key last = sorted_keys.back();
  boundaries_.push_back(last == ~Key{0} ? last : last + 1);
  // Recompute per-bucket depth after potential boundary collapses.
  keys_per_bucket_ =
      static_cast<double>(n) / static_cast<double>(boundaries_.size() - 1);
}

double EquiDepthHistogram::EstimateLess(Key key) const {
  if (total_keys_ == 0) return 0.0;
  if (key <= boundaries_.front()) return 0.0;
  if (key >= boundaries_.back()) return static_cast<double>(total_keys_);
  const size_t hi =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), key) -
      boundaries_.begin();
  const size_t bucket = hi - 1;
  const double span = static_cast<double>(boundaries_[hi]) -
                      static_cast<double>(boundaries_[bucket]);
  const double frac =
      span > 0.0 ? (static_cast<double>(key) -
                    static_cast<double>(boundaries_[bucket])) /
                       span
                 : 0.0;
  return (static_cast<double>(bucket) + frac) * keys_per_bucket_;
}

double EquiDepthHistogram::EstimateRange(Key lo, Key hi) const {
  if (hi < lo) return 0.0;
  const double upper =
      hi == ~Key{0} ? static_cast<double>(total_keys_) : EstimateLess(hi + 1);
  return std::max(0.0, upper - EstimateLess(lo));
}

size_t EquiDepthHistogram::MemoryBytes() const {
  return boundaries_.size() * sizeof(Key) + sizeof(*this);
}

LearnedCardinalityEstimator::LearnedCardinalityEstimator(
    std::span<const Key> sorted_keys, Options options)
    : options_(options) {
  Retrain(sorted_keys);
}

void LearnedCardinalityEstimator::Retrain(
    std::span<const Key> sorted_keys) {
  total_keys_ = sorted_keys.size();
  knot_keys_.clear();
  knot_cdf_.clear();
  if (sorted_keys.empty()) {
    knot_keys_ = {0, 1};
    knot_cdf_ = {0.0, 1.0};
    return;
  }
  // Sample (deterministically strided) then place equi-rank knots.
  const size_t n = sorted_keys.size();
  const size_t sample_n = std::min(options_.sample_size, n);
  std::vector<Key> sample;
  sample.reserve(sample_n);
  const double stride =
      static_cast<double>(n) / static_cast<double>(sample_n);
  for (size_t i = 0; i < sample_n; ++i) {
    sample.push_back(
        sorted_keys[static_cast<size_t>(static_cast<double>(i) * stride)]);
  }
  const int knots = std::max(2, options_.num_knots);
  for (int k = 0; k < knots; ++k) {
    const double q = static_cast<double>(k) / (knots - 1);
    const size_t idx = std::min<size_t>(
        static_cast<size_t>(q * static_cast<double>(sample.size() - 1)),
        sample.size() - 1);
    const Key key = sample[idx];
    if (!knot_keys_.empty() && key <= knot_keys_.back()) {
      knot_cdf_.back() = std::max(knot_cdf_.back(), q);
      continue;
    }
    knot_keys_.push_back(key);
    knot_cdf_.push_back(q);
  }
  if (knot_keys_.size() == 1) {
    knot_keys_.push_back(knot_keys_[0] + 1);
    knot_cdf_ = {0.0, 1.0};
  }
  knot_cdf_.front() = 0.0;
  knot_cdf_.back() = 1.0;
}

double LearnedCardinalityEstimator::CdfAt(Key key) const {
  if (key <= knot_keys_.front()) return knot_cdf_.front();
  if (key >= knot_keys_.back()) return knot_cdf_.back();
  const size_t hi =
      std::upper_bound(knot_keys_.begin(), knot_keys_.end(), key) -
      knot_keys_.begin();
  const size_t lo = hi - 1;
  const double span = static_cast<double>(knot_keys_[hi]) -
                      static_cast<double>(knot_keys_[lo]);
  const double frac =
      span > 0.0 ? (static_cast<double>(key) -
                    static_cast<double>(knot_keys_[lo])) /
                       span
                 : 0.0;
  return knot_cdf_[lo] + frac * (knot_cdf_[hi] - knot_cdf_[lo]);
}

double LearnedCardinalityEstimator::EstimateRange(Key lo, Key hi) const {
  if (hi < lo || total_keys_ == 0) return 0.0;
  const double sel = std::max(0.0, CdfAt(hi) - CdfAt(lo));
  return sel * static_cast<double>(total_keys_);
}

void LearnedCardinalityEstimator::Feedback(Key lo, Key hi,
                                           double true_cardinality) {
  if (total_keys_ == 0 || hi < lo) return;
  ++feedback_count_;
  const double true_sel =
      std::clamp(true_cardinality / static_cast<double>(total_keys_), 0.0, 1.0);
  const double target_hi_cdf = std::clamp(CdfAt(lo) + true_sel, 0.0, 1.0);
  const double current = CdfAt(hi);
  double updated =
      current + options_.learning_rate * (target_hi_cdf - current);

  // Insert or update a knot at `hi`, clamped so monotonicity survives.
  const auto it = std::lower_bound(knot_keys_.begin(), knot_keys_.end(), hi);
  const size_t pos = it - knot_keys_.begin();
  const double prev_cdf = pos == 0 ? 0.0 : knot_cdf_[pos - 1];
  const double next_cdf = [&] {
    if (it != knot_keys_.end() && *it == hi) {
      return pos + 1 < knot_cdf_.size() ? knot_cdf_[pos + 1] : 1.0;
    }
    return pos < knot_cdf_.size() ? knot_cdf_[pos] : 1.0;
  }();
  updated = std::clamp(updated, prev_cdf, next_cdf);

  if (it != knot_keys_.end() && *it == hi) {
    knot_cdf_[pos] = updated;
  } else {
    knot_keys_.insert(it, hi);
    knot_cdf_.insert(knot_cdf_.begin() + pos, updated);
  }

  // Bound model growth: thin interior knots once we exceed 4x capacity.
  const size_t cap = static_cast<size_t>(options_.num_knots) * 4;
  if (knot_keys_.size() > cap) {
    std::vector<Key> keys;
    std::vector<double> cdf;
    keys.reserve(knot_keys_.size() / 2 + 2);
    cdf.reserve(keys.capacity());
    for (size_t i = 0; i < knot_keys_.size(); ++i) {
      if (i == 0 || i + 1 == knot_keys_.size() || i % 2 == 0) {
        keys.push_back(knot_keys_[i]);
        cdf.push_back(knot_cdf_[i]);
      }
    }
    knot_keys_ = std::move(keys);
    knot_cdf_ = std::move(cdf);
  }
}

size_t LearnedCardinalityEstimator::MemoryBytes() const {
  return knot_keys_.size() * (sizeof(Key) + sizeof(double)) + sizeof(*this);
}

}  // namespace lsbench
