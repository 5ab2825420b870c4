#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>


namespace lsbench {

namespace {
// Geometric bucket growth factor. With 1024 buckets and a base of 1.0,
// values up to ~1.05^1023 (astronomically large) are representable.
constexpr double kGrowth = 1.05;
const double kLogGrowth = std::log(kGrowth);
}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

int Histogram::BucketFor(double value) {
  if (value <= 1.0) return 0;
  int idx = static_cast<int>(std::log(value) / kLogGrowth) + 1;
  return std::min(idx, kNumBuckets - 1);
}

double Histogram::BucketLower(int i) {
  if (i <= 0) return 0.0;
  return std::pow(kGrowth, i - 1);
}

double Histogram::BucketUpper(int i) { return std::pow(kGrowth, i); }

void Histogram::Record(double value) {
  RecordInBucket(value, BucketFor(value));
}

void Histogram::RecordInBucket(double value, int bucket) {
  if (value < 0.0) value = 0.0;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  sum_squares_ += value * value;
  ++buckets_[bucket];
}

void Histogram::RecordRepeated(double value, int bucket, uint64_t times) {
  if (times == 0) return;
  if (value < 0.0) value = 0.0;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += times;
  const double square = value * value;
  for (uint64_t i = 0; i < times; ++i) {
    sum_ += value;
    sum_squares_ += square;
  }
  buckets_[bucket] += times;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_squares_ += other.sum_squares_;
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  sum_squares_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }
double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::StdDev() const {
  if (count_ == 0) return 0.0;
  const double n = static_cast<double>(count_);
  const double mean = sum_ / n;
  const double var = std::max(0.0, sum_squares_ / n - mean * mean);
  return std::sqrt(var);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t next = cumulative + buckets_[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bucket, clamped to observed extremes.
      const double frac =
          buckets_[i] == 0
              ? 0.0
              : (target - static_cast<double>(cumulative)) /
                    static_cast<double>(buckets_[i]);
      const double lo = std::max(BucketLower(i), min_);
      const double hi = std::min(BucketUpper(i), max_);
      return lo + frac * std::max(0.0, hi - lo);
    }
    cumulative = next;
  }
  return max_;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << Mean() << " p50=" << Median()
     << " p95=" << P95() << " p99=" << P99() << " max=" << max();
  return os.str();
}

}  // namespace lsbench
