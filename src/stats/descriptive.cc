#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>


namespace lsbench {

void StreamingStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StreamingStats::Clear() { *this = StreamingStats(); }

double StreamingStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::StdDev() const { return std::sqrt(Variance()); }

double StreamingStats::CoefficientOfVariation() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return StdDev() / m;
}

namespace {

/// Where type-7 quantile q of n > 0 values falls: between order statistics
/// `lo` and `lo + 1` (clamped to n - 1), `frac` of the way up.
struct QuantilePosition {
  size_t lo;
  size_t hi;
  double frac;
};

QuantilePosition PositionOf(size_t n, double q) {
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

}  // namespace

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const QuantilePosition p = PositionOf(sorted.size(), q);
  return sorted[p.lo] + p.frac * (sorted[p.hi] - sorted[p.lo]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const QuantilePosition p = PositionOf(values.size(), q);
  // Selection instead of a sort: nth_element places order statistic `lo`
  // and leaves everything above it in the upper partition, whose minimum
  // is order statistic `lo + 1`. Same two doubles as sorting, so the same
  // result bit for bit.
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(p.lo);
  std::nth_element(values.begin(), lo, values.end());
  const double below = *lo;
  const double above =
      p.hi == p.lo ? below : *std::min_element(lo + 1, values.end());
  return below + p.frac * (above - below);
}

namespace {

/// The value at 0-based position `rank` of the expanded sample in
/// [first, last), which holds more than `rank` elements by weight.
/// Reorders the range.
double WeightedOrderStatistic(std::vector<WeightedValue>::iterator first,
                              std::vector<WeightedValue>::iterator last,
                              uint64_t rank) {
  const auto by_value = [](const WeightedValue& a, const WeightedValue& b) {
    return a.value < b.value;
  };
  for (;;) {
    const auto mid = first + (last - first) / 2;
    std::nth_element(first, mid, last, by_value);
    uint64_t below = 0;
    for (auto it = first; it != mid; ++it) below += it->weight;
    if (rank < below) {
      last = mid;
    } else if (rank - below < mid->weight) {
      return mid->value;
    } else {
      rank -= below + mid->weight;
      first = mid + 1;
    }
  }
}

}  // namespace

double WeightedQuantile(std::vector<WeightedValue> values, double q) {
  uint64_t n = 0;
  for (const WeightedValue& v : values) n += v.weight;
  if (n == 0) return 0.0;
  const QuantilePosition p = PositionOf(static_cast<size_t>(n), q);
  const double below = WeightedOrderStatistic(values.begin(), values.end(),
                                              p.lo);
  const double above =
      p.hi == p.lo
          ? below
          : WeightedOrderStatistic(values.begin(), values.end(), p.hi);
  return below + p.frac * (above - below);
}

std::string BoxPlotSummary::ToString() const {
  std::ostringstream os;
  os << "n=" << count << " min=" << min << " q1=" << q1
     << " median=" << median << " q3=" << q3 << " max=" << max
     << " mean=" << mean << " outliers=" << outliers.size();
  return os.str();
}

BoxPlotSummary ComputeBoxPlot(std::vector<double> values) {
  BoxPlotSummary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  s.min = values.front();
  s.max = values.back();
  s.q1 = QuantileSorted(values, 0.25);
  s.median = QuantileSorted(values, 0.5);
  s.q3 = QuantileSorted(values, 0.75);
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());

  const double iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * iqr;
  const double hi_fence = s.q3 + 1.5 * iqr;
  s.whisker_low = s.max;   // Will shrink below.
  s.whisker_high = s.min;  // Will grow below.
  for (double v : values) {
    if (v < lo_fence || v > hi_fence) {
      s.outliers.push_back(v);
    } else {
      s.whisker_low = std::min(s.whisker_low, v);
      s.whisker_high = std::max(s.whisker_high, v);
    }
  }
  if (s.outliers.size() == s.count) {
    // Degenerate: everything flagged (cannot happen with 1.5*IQR and a
    // nonempty interquartile range, but guard zero-IQR pathologies).
    s.whisker_low = s.min;
    s.whisker_high = s.max;
    s.outliers.clear();
  }
  return s;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double cov = 0.0, vx = 0.0, vy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    cov += dx * dy;
    vx += dx * dx;
    vy += dy * dy;
  }
  if (vx == 0.0 || vy == 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace lsbench
