#ifndef LSBENCH_STATS_DESCRIPTIVE_H_
#define LSBENCH_STATS_DESCRIPTIVE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lsbench {

/// Streaming mean/variance/extremes via Welford's algorithm. O(1) memory,
/// numerically stable; mergeable (Chan's parallel variance formula).
class StreamingStats {
 public:
  void Add(double x);
  void Merge(const StreamingStats& other);
  void Clear();

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 observations.
  double Variance() const;
  double StdDev() const;
  /// StdDev / mean; 0 when the mean is 0.
  double CoefficientOfVariation() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact quantile of a sample using linear interpolation between order
/// statistics (type-7, the numpy/R default). `q` in [0, 1]. Selects the
/// two order statistics in its by-value copy (linear time, no sort); the
/// result equals QuantileSorted on the sorted values bit for bit.
double Quantile(std::vector<double> values, double q);

/// Quantile over already-sorted data (no copy).
double QuantileSorted(const std::vector<double>& sorted, double q);

/// A value that occurs `weight` times.
struct WeightedValue {
  double value = 0.0;
  uint64_t weight = 0;
};

/// Quantile of the sample in which each value occurs `weight` times:
/// equals Quantile over that expanded list bit for bit, without expanding
/// it. Selects the two order statistics by weighted partitioning, in
/// expected time linear in the number of distinct entries.
double WeightedQuantile(std::vector<WeightedValue> values, double q);

/// Five-number summary plus Tukey outliers — the ingredients of the box
/// plots the paper proposes for specialization reporting (Fig. 1a).
struct BoxPlotSummary {
  uint64_t count = 0;
  double min = 0.0;        ///< Smallest observation (including outliers).
  double q1 = 0.0;         ///< First quartile.
  double median = 0.0;
  double q3 = 0.0;         ///< Third quartile.
  double max = 0.0;        ///< Largest observation (including outliers).
  double mean = 0.0;
  double whisker_low = 0.0;   ///< Smallest value >= q1 - 1.5*IQR.
  double whisker_high = 0.0;  ///< Largest value <= q3 + 1.5*IQR.
  std::vector<double> outliers;  ///< Values outside the whiskers, sorted.

  double Iqr() const { return q3 - q1; }
  std::string ToString() const;
};

/// Computes a BoxPlotSummary of `values`. Sorts a copy; empty input returns
/// a zeroed summary.
BoxPlotSummary ComputeBoxPlot(std::vector<double> values);

/// Pearson correlation of two equal-length series; 0 if degenerate.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace lsbench

#endif  // LSBENCH_STATS_DESCRIPTIVE_H_
