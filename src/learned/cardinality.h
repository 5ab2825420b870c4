#ifndef LSBENCH_LEARNED_CARDINALITY_H_
#define LSBENCH_LEARNED_CARDINALITY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/kv_index.h"
#include "stats/model.h"

namespace lsbench {

/// Range-cardinality estimator interface: predicts how many stored keys fall
/// in [lo, hi]. Drives the access-path optimizer; the learned variant can be
/// refined online from execution feedback (the paper's §IV point that
/// ground-truth labels can be collected during query execution).
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  virtual std::string name() const = 0;

  /// Estimated number of keys in [lo, hi]. Never negative.
  virtual double EstimateRange(Key lo, Key hi) const = 0;

  /// Optional online feedback with the true cardinality of an executed
  /// range. Default: ignore (traditional estimators are static).
  virtual void Feedback(Key lo, Key hi, double true_cardinality) {
    (void)lo;
    (void)hi;
    (void)true_cardinality;
  }

  virtual size_t MemoryBytes() const = 0;
};

/// Traditional equi-depth histogram built once from the stored keys: each of
/// the `num_buckets` buckets holds ~n/num_buckets keys; estimates assume
/// uniformity inside a bucket.
class EquiDepthHistogram final : public CardinalityEstimator {
 public:
  EquiDepthHistogram(std::span<const Key> sorted_keys, int num_buckets);

  std::string name() const override { return "equi_depth_histogram"; }
  double EstimateRange(Key lo, Key hi) const override;
  size_t MemoryBytes() const override;

 private:
  /// Estimated number of keys < key.
  double EstimateLess(Key key) const;

  std::vector<Key> boundaries_;  // bucket i covers [boundaries_[i], boundaries_[i+1]).
  double keys_per_bucket_ = 0.0;
  size_t total_keys_ = 0;
};

/// Learned estimator: a CDF model fitted on a sample of the keys, refined
/// online by query feedback. Feedback nudges the local CDF slope toward the
/// observed selectivity with a learning rate — cheap online training whose
/// cost/benefit is exactly what Lesson 3 asks benchmarks to expose.
class LearnedCardinalityEstimator final : public CardinalityEstimator {
 public:
  struct Options {
    int num_knots = 128;
    size_t sample_size = 4096;
    double learning_rate = 0.3;
    uint64_t seed = 99;
  };

  LearnedCardinalityEstimator(std::span<const Key> sorted_keys,
                              Options options);

  std::string name() const override { return "learned_cdf"; }
  double EstimateRange(Key lo, Key hi) const override;
  void Feedback(Key lo, Key hi, double true_cardinality) override;
  size_t MemoryBytes() const override;

  uint64_t feedback_count() const { return feedback_count_; }

  /// Rebuilds the model from a fresh key sample (offline retraining).
  void Retrain(std::span<const Key> sorted_keys);

 private:
  double CdfAt(Key key) const;

  Options options_;
  size_t total_keys_ = 0;
  std::vector<Key> knot_keys_;
  std::vector<double> knot_cdf_;
  uint64_t feedback_count_ = 0;
};

/// q-error of an estimate: max(est/true, true/est) with both clamped to a
/// minimum of 1 — the standard cardinality-estimation accuracy metric.
double QError(double estimate, double truth);

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_CARDINALITY_H_
