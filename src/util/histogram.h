#ifndef LSBENCH_UTIL_HISTOGRAM_H_
#define LSBENCH_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lsbench {

/// Log-bucketed histogram of non-negative values (typically latencies in
/// nanoseconds). Buckets grow geometrically, giving ~2.3% relative error on
/// recovered quantiles while using constant memory. Inspired by the
/// HdrHistogram / RocksDB statistics design.
class Histogram {
 public:
  Histogram();

  /// Records one observation. Negative values are clamped to zero.
  void Record(double value);

  /// The bucket Record(value) counts `value` in. Lets a caller that records
  /// one value into several histograms, or the same value many times in a
  /// row, take the logarithm once.
  static int BucketFor(double value);

  /// Record(value), given `bucket == BucketFor(value)`.
  void RecordInBucket(double value, int bucket);

  /// `times` calls of RecordInBucket(value, bucket), bit for bit: the sum
  /// and sum of squares still add `value` once per repeat, in a loop, so
  /// they round exactly as the separate calls would.
  void RecordRepeated(double value, int bucket, uint64_t times);

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

  /// Removes all observations.
  void Clear();

  uint64_t count() const { return count_; }
  double min() const;
  double max() const;
  double sum() const { return sum_; }
  double Mean() const;
  /// Population standard deviation of the recorded values.
  double StdDev() const;

  /// Value at quantile q in [0, 1], interpolated within the bucket.
  /// Returns 0 when empty.
  double Quantile(double q) const;

  double Median() const { return Quantile(0.5); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  /// Multi-line human-readable summary (count/mean/p50/p95/p99/max).
  std::string ToString() const;

 private:
  static constexpr int kNumBuckets = 1024;

  /// Lower bound of bucket i.
  static double BucketLower(int i);
  /// Upper bound of bucket i.
  static double BucketUpper(int i);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_squares_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lsbench

#endif  // LSBENCH_UTIL_HISTOGRAM_H_
