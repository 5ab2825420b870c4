#ifndef LSBENCH_DATA_DISTRIBUTION_H_
#define LSBENCH_DATA_DISTRIBUTION_H_

#include <memory>
#include <string>
#include <vector>

#include "util/random.h"

namespace lsbench {

/// A continuous distribution over the unit interval [0, 1). Datasets are
/// produced by sampling a distribution and scaling into the key domain,
/// which makes distributions directly comparable (KS / MMD) and trivially
/// mixable — the mechanism behind LSBench's "drifting data" phases.
class UnitDistribution {
 public:
  virtual ~UnitDistribution() = default;

  /// Draws one value in [0, 1). GenerateDataset calls it from several
  /// threads at once, each with its own Rng, so it must not write to the
  /// distribution.
  virtual double Sample(Rng* rng) const = 0;

  /// Moves `rng` exactly as Sample would, without computing the value.
  /// GenerateDataset walks a long draw with Skip to find where each
  /// thread's block of draws starts. The default calls Sample; an override
  /// is only faster. One that moves `rng` differently is caught: the
  /// generation aborts when a block's draws end elsewhere than the walk
  /// put the next block's start.
  virtual void Skip(Rng* rng) const { static_cast<void>(Sample(rng)); }

  /// Short descriptive name, e.g. "zipfish(1.1)".
  virtual std::string name() const = 0;
};

/// Uniform over [0, 1) — the distribution the paper's dataset-quality tool
/// should give "low marks" to (§V-C).
class UniformUnit final : public UnitDistribution {
 public:
  double Sample(Rng* rng) const override { return rng->NextDouble(); }
  void Skip(Rng* rng) const override { rng->Next(); }  // NextDouble's.
  std::string name() const override { return "uniform"; }
};

/// Gaussian with the given mean/stddev, folded back into [0, 1).
class GaussianUnit final : public UnitDistribution {
 public:
  GaussianUnit(double mean, double stddev) : mean_(mean), stddev_(stddev) {}
  double Sample(Rng* rng) const override;
  void Skip(Rng* rng) const override;
  std::string name() const override;

 private:
  double mean_;
  double stddev_;
};

/// Lognormal, rescaled into [0, 1) by a fixed saturation point. Produces the
/// right-skewed shape typical of real key sets (e.g., "books" in SOSD).
class LognormalUnit final : public UnitDistribution {
 public:
  LognormalUnit(double mu, double sigma);
  double Sample(Rng* rng) const override;
  void Skip(Rng* rng) const override;
  std::string name() const override;

 private:
  double mu_;
  double sigma_;
  double saturation_;  // exp(mu + 4 sigma)
};

/// Bounded Pareto-style heavy tail mapped into [0, 1). Higher alpha means a
/// lighter tail.
class ParetoUnit final : public UnitDistribution {
 public:
  explicit ParetoUnit(double alpha) : alpha_(alpha) {}
  double Sample(Rng* rng) const override;
  void Skip(Rng* rng) const override;
  std::string name() const override;

 private:
  double alpha_;
};

/// Mixture of component distributions with the given weights (normalized
/// internally). Owns its components.
class MixtureUnit final : public UnitDistribution {
 public:
  MixtureUnit(std::vector<std::unique_ptr<UnitDistribution>> components,
              std::vector<double> weights);
  double Sample(Rng* rng) const override;
  void Skip(Rng* rng) const override;
  std::string name() const override;

 private:
  /// Draws the component the next sample comes from.
  const UnitDistribution& Pick(Rng* rng) const;

  std::vector<std::unique_ptr<UnitDistribution>> components_;
  std::vector<double> cumulative_;
};

/// `n_clusters` Gaussian bumps at deterministic pseudo-random centers —
/// mimics the clustered key spaces of map/OSM-style data.
class ClusteredUnit final : public UnitDistribution {
 public:
  ClusteredUnit(int n_clusters, double spread, uint64_t seed);
  double Sample(Rng* rng) const override;
  void Skip(Rng* rng) const override;
  std::string name() const override;

 private:
  std::vector<double> centers_;
  double spread_;
};

/// Linear interpolation between two distributions: with probability
/// (1 - t) samples from `a`, else from `b`. t in [0, 1]. Borrows both.
class BlendUnit final : public UnitDistribution {
 public:
  BlendUnit(const UnitDistribution* a, const UnitDistribution* b, double t);
  double Sample(Rng* rng) const override;
  void Skip(Rng* rng) const override;
  std::string name() const override;

 private:
  /// Draws the distribution the next sample comes from.
  const UnitDistribution& Pick(Rng* rng) const;

  const UnitDistribution* a_;
  const UnitDistribution* b_;
  double t_;
};

/// Factory helpers.
std::unique_ptr<UnitDistribution> MakeUniform();
std::unique_ptr<UnitDistribution> MakeGaussian(double mean, double stddev);
std::unique_ptr<UnitDistribution> MakeLognormal(double mu, double sigma);
std::unique_ptr<UnitDistribution> MakePareto(double alpha);
std::unique_ptr<UnitDistribution> MakeClustered(int n_clusters, double spread,
                                                uint64_t seed);

}  // namespace lsbench

#endif  // LSBENCH_DATA_DISTRIBUTION_H_
