#ifndef LSBENCH_STATS_MODEL_H_
#define LSBENCH_STATS_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/key_value.h"

namespace lsbench {

/// y = slope * x + intercept over double-converted keys. The atomic building
/// block of every learned component in LSBench (RMI stages, PGM segments,
/// adaptive nodes, CDF models).
struct LinearModel {
  double slope = 0.0;
  double intercept = 0.0;

  double Predict(double x) const { return slope * x + intercept; }

  /// Predicts and clamps into [0, n-1], returning a usable array position.
  size_t PredictClamped(double x, size_t n) const;
};

/// Least-squares fit of positions 0..n-1 against keys[first..first+n).
/// Degenerate inputs (n < 2 or all-equal keys) produce a constant model.
LinearModel FitLinear(const Key* keys, size_t n);

/// Least-squares fit of y against x from running sums: points are added one
/// at a time, so a caller fits straight from its own arrays without copying
/// them into (x, y) vectors. No points give the zero model; a degenerate x
/// (all points equal) gives a constant model at the mean y.
class LinearFitSums {
 public:
  void Add(double x, double y) {
    sum_x_ += x;
    sum_y_ += y;
    sum_xx_ += x * x;
    sum_xy_ += x * y;
    ++count_;
  }

  size_t count() const { return count_; }
  LinearModel Fit() const;

 private:
  double sum_x_ = 0.0;
  double sum_y_ = 0.0;
  double sum_xx_ = 0.0;
  double sum_xy_ = 0.0;
  size_t count_ = 0;
};

/// Monotone piecewise-linear CDF model over a sample: F(key) in [0, 1].
/// `SynthesizeDatasetLike` inverts it to draw keys shaped like a dataset.
class CdfModel {
 public:
  /// Builds from a *sorted* sample using `num_knots` equally-spaced-in-rank
  /// knots (>= 2). An empty sample yields the identity-on-[0,1] CDF.
  static CdfModel FitFromSorted(const std::vector<Key>& sorted_sample,
                                int num_knots);

  /// F(key): fraction of the distribution <= key, in [0, 1]. Monotone
  /// non-decreasing in `key`.
  double Evaluate(Key key) const;

  /// Inverse CDF: the key below which fraction `q` of mass lies.
  Key EvaluateInverse(double q) const;

  size_t num_knots() const { return knot_keys_.size(); }
  size_t MemoryBytes() const {
    return knot_keys_.size() * (sizeof(Key) + sizeof(double));
  }

 private:
  std::vector<Key> knot_keys_;    // Ascending.
  std::vector<double> knot_cdf_;  // Ascending in [0, 1], same length.
};

}  // namespace lsbench

#endif  // LSBENCH_STATS_MODEL_H_
