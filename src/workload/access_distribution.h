#ifndef LSBENCH_WORKLOAD_ACCESS_DISTRIBUTION_H_
#define LSBENCH_WORKLOAD_ACCESS_DISTRIBUTION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/random.h"

namespace lsbench {

/// Chooses *which* record a query touches: a distribution over ranks
/// [0, population). Orthogonal to the data distribution (which decides
/// where keys live in the key space). Population may grow between draws
/// (inserts), so it is a parameter of NextRank rather than of the object.
class AccessDistribution {
 public:
  virtual ~AccessDistribution() = default;

  virtual std::string name() const = 0;

  /// A rank in [0, population). Requires population > 0.
  virtual uint64_t NextRank(Rng* rng, uint64_t population) = 0;

  /// Draws `count` ranks — the batch generator's one-virtual-call-per-batch
  /// draw path. MUST be observably identical to `count` successive NextRank
  /// calls (same RNG consumption, same values); overrides exist purely to
  /// devirtualize the inner loop, and the batch determinism tests pin the
  /// equivalence.
  virtual void FillRanks(Rng* rng, uint64_t population, uint64_t* ranks,
                         uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      ranks[i] = NextRank(rng, population);
    }
  }
};

/// Every record equally likely.
class UniformAccess final : public AccessDistribution {
 public:
  std::string name() const override { return "uniform"; }
  uint64_t NextRank(Rng* rng, uint64_t population) override;
  void FillRanks(Rng* rng, uint64_t population, uint64_t* ranks,
                 uint32_t count) override;
};

/// YCSB-style Zipfian over ranks with parameter theta in (0, 1); rank
/// popularity is scrambled via a hash so hot items are spread across the key
/// space (set scramble=false to keep rank 0 hottest — "latest"-like skew).
class ZipfianAccess final : public AccessDistribution {
 public:
  explicit ZipfianAccess(double theta = 0.99, bool scramble = true);

  std::string name() const override;
  uint64_t NextRank(Rng* rng, uint64_t population) override;

 private:
  /// Recomputes zeta(n, theta) incrementally as the population grows.
  void ExtendZeta(uint64_t n);

  double theta_;
  bool scramble_;
  uint64_t zeta_n_ = 0;
  double zeta_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  double zeta2_ = 0.0;
};

/// `hot_fraction` of the records receive `hot_probability` of the accesses;
/// the rest are uniform over the cold set. `hot_start` places the hot
/// region: the hot ranks are [hot_start * population, hot_start * population
/// + hot_fraction * population), wrapping around the rank space — the
/// "hotspot location" knob that drift scenarios march across phases. The
/// default of 0 reproduces the historical hot-ranks-first behaviour
/// draw-for-draw.
class HotSpotAccess final : public AccessDistribution {
 public:
  HotSpotAccess(double hot_fraction, double hot_probability,
                double hot_start = 0.0);

  std::string name() const override;
  uint64_t NextRank(Rng* rng, uint64_t population) override;

 private:
  double hot_fraction_;
  double hot_probability_;
  double hot_start_;
};

/// Favors the most recently inserted records: rank = population - 1 - Z
/// where Z is Zipfian-distributed — the YCSB "latest" distribution.
class LatestAccess final : public AccessDistribution {
 public:
  explicit LatestAccess(double theta = 0.99);

  std::string name() const override { return "latest"; }
  uint64_t NextRank(Rng* rng, uint64_t population) override;

 private:
  ZipfianAccess zipf_;
};

/// Round-robin sequential sweep (cursor persists across draws).
class SequentialAccess final : public AccessDistribution {
 public:
  std::string name() const override { return "sequential"; }
  uint64_t NextRank(Rng* rng, uint64_t population) override;

 private:
  uint64_t cursor_ = 0;
};

/// Named factory used by workload specs.
enum class AccessPattern {
  kUniform,
  kZipfian,
  kHotSpot,
  kLatest,
  kSequential,
};

std::string AccessPatternToString(AccessPattern pattern);

/// `param` meaning: zipfian/latest -> theta (<=0 selects 0.99);
/// hotspot -> hot_fraction (hot_probability fixed at 0.9); else unused.
/// `param2` meaning: hotspot -> hot region start as a fraction of the rank
/// space (values outside (0, 1) select 0); else unused.
std::unique_ptr<AccessDistribution> MakeAccessDistribution(
    AccessPattern pattern, double param = 0.0, double param2 = 0.0);

}  // namespace lsbench

#endif  // LSBENCH_WORKLOAD_ACCESS_DISTRIBUTION_H_
