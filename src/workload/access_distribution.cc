#include "workload/access_distribution.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/string_util.h"

namespace lsbench {

uint64_t UniformAccess::NextRank(Rng* rng, uint64_t population) {
  LSBENCH_ASSERT(population > 0);
  return rng->NextBounded(population);
}

void UniformAccess::FillRanks(Rng* rng, uint64_t population, uint64_t* ranks,
                              uint32_t count) {
  LSBENCH_ASSERT(population > 0);
  // Same draws as `count` NextRank calls, with the virtual dispatch and the
  // per-draw assert hoisted out of the loop.
  for (uint32_t i = 0; i < count; ++i) {
    ranks[i] = rng->NextBounded(population);
  }
}

ZipfianAccess::ZipfianAccess(double theta, bool scramble)
    : theta_(theta), scramble_(scramble) {
  LSBENCH_ASSERT(theta_ > 0.0 && theta_ < 1.0);
  zeta2_ = 1.0 + std::pow(0.5, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
}

std::string ZipfianAccess::name() const {
  return std::string("zipfian(") + FormatDouble(theta_, 2) + ")";
}

void ZipfianAccess::ExtendZeta(uint64_t n) {
  for (uint64_t i = zeta_n_ + 1; i <= n; ++i) {
    zeta_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  zeta_n_ = std::max(zeta_n_, n);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(zeta_n_), 1.0 - theta_)) /
         (1.0 - zeta2_ / zeta_);
}

uint64_t ZipfianAccess::NextRank(Rng* rng, uint64_t population) {
  LSBENCH_ASSERT(population > 0);
  if (population == 1) return 0;
  if (population > zeta_n_) ExtendZeta(population);
  // Populations can shrink under deletes; the draw below uses the constants
  // of the largest population seen and folds into range, a negligible skew
  // distortion that keeps every draw O(1).
  const double u = rng->NextDouble();
  const double uz = u * zeta_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < zeta2_) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(
        static_cast<double>(zeta_n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }
  rank %= population;
  if (scramble_) {
    // Spread the popularity ranking across the rank space. Fold into the
    // largest power of two <= population rather than population itself:
    // a modulo by the live population would remap every hot rank on every
    // insert, smearing the skew whenever the key set grows.
    SplitMix64 mixer(rank * 0x9e3779b97f4a7c15ULL + 0x1234);
    uint64_t pow2 = population;
    pow2 |= pow2 >> 1;
    pow2 |= pow2 >> 2;
    pow2 |= pow2 >> 4;
    pow2 |= pow2 >> 8;
    pow2 |= pow2 >> 16;
    pow2 |= pow2 >> 32;
    pow2 = (pow2 >> 1) + 1;  // Largest power of two <= population.
    rank = mixer.Next() & (pow2 - 1);
  }
  return rank;
}

HotSpotAccess::HotSpotAccess(double hot_fraction, double hot_probability,
                             double hot_start)
    : hot_fraction_(hot_fraction),
      hot_probability_(hot_probability),
      hot_start_(hot_start) {
  LSBENCH_ASSERT(hot_fraction_ > 0.0 && hot_fraction_ <= 1.0);
  LSBENCH_ASSERT(hot_probability_ >= 0.0 && hot_probability_ <= 1.0);
  LSBENCH_ASSERT(hot_start_ >= 0.0 && hot_start_ < 1.0);
}

std::string HotSpotAccess::name() const {
  // Appended piecewise: GCC 12's -Wrestrict misfires on the `"(" + s`
  // form in an optimized build, which fails -DLSBENCH_WERROR=ON.
  std::string out = "hotspot(";
  out.append(FormatDouble(hot_fraction_, 2))
      .append(",")
      .append(FormatDouble(hot_probability_, 2));
  if (hot_start_ > 0.0) out.append(",").append(FormatDouble(hot_start_, 2));
  return out.append(")");
}

uint64_t HotSpotAccess::NextRank(Rng* rng, uint64_t population) {
  LSBENCH_ASSERT(population > 0);
  const uint64_t hot_count = std::max<uint64_t>(
      1, static_cast<uint64_t>(hot_fraction_ *
                               static_cast<double>(population)));
  // The start offset rotates both the hot and the cold region by the same
  // amount, so the RNG consumption (one NextBool + one NextBounded with the
  // same bound) is identical for every hot_start — and a hot_start of 0
  // reproduces the historical hot-ranks-first draws bit-for-bit.
  const uint64_t start =
      static_cast<uint64_t>(hot_start_ * static_cast<double>(population)) %
      population;
  if (rng->NextBool(hot_probability_)) {
    return (start + rng->NextBounded(hot_count)) % population;
  }
  if (hot_count >= population) return rng->NextBounded(population);
  return (start + hot_count + rng->NextBounded(population - hot_count)) %
         population;
}

LatestAccess::LatestAccess(double theta) : zipf_(theta, /*scramble=*/false) {}

uint64_t LatestAccess::NextRank(Rng* rng, uint64_t population) {
  LSBENCH_ASSERT(population > 0);
  const uint64_t z = zipf_.NextRank(rng, population);
  return population - 1 - z;
}

uint64_t SequentialAccess::NextRank(Rng* rng, uint64_t population) {
  (void)rng;
  LSBENCH_ASSERT(population > 0);
  const uint64_t rank = cursor_ % population;
  ++cursor_;
  return rank;
}

std::string AccessPatternToString(AccessPattern pattern) {
  switch (pattern) {
    case AccessPattern::kUniform:
      return "uniform";
    case AccessPattern::kZipfian:
      return "zipfian";
    case AccessPattern::kHotSpot:
      return "hotspot";
    case AccessPattern::kLatest:
      return "latest";
    case AccessPattern::kSequential:
      return "sequential";
  }
  return "unknown";
}

std::unique_ptr<AccessDistribution> MakeAccessDistribution(
    AccessPattern pattern, double param, double param2) {
  switch (pattern) {
    case AccessPattern::kUniform:
      return std::make_unique<UniformAccess>();
    case AccessPattern::kZipfian:
      return std::make_unique<ZipfianAccess>(param > 0.0 ? param : 0.99);
    case AccessPattern::kHotSpot:
      return std::make_unique<HotSpotAccess>(
          param > 0.0 ? param : 0.1, 0.9,
          param2 > 0.0 && param2 < 1.0 ? param2 : 0.0);
    case AccessPattern::kLatest:
      return std::make_unique<LatestAccess>(param > 0.0 ? param : 0.99);
    case AccessPattern::kSequential:
      return std::make_unique<SequentialAccess>();
  }
  return std::make_unique<UniformAccess>();
}

}  // namespace lsbench
