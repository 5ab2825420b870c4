#include "data/distribution.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/string_util.h"

namespace lsbench {

namespace {

/// Folds an unbounded sample into [0, 1) by reflecting at the borders.
double FoldIntoUnit(double x) {
  x = std::fmod(x, 2.0);
  if (x < 0.0) x += 2.0;
  if (x >= 1.0) x = 2.0 - x;
  // Guard against returning exactly 1.0 due to rounding.
  return std::min(x, std::nextafter(1.0, 0.0));
}

}  // namespace

double GaussianUnit::Sample(Rng* rng) const {
  return FoldIntoUnit(mean_ + stddev_ * rng->NextGaussian());
}

void GaussianUnit::Skip(Rng* rng) const { rng->SkipGaussian(); }

std::string GaussianUnit::name() const {
  return "gaussian(" + FormatDouble(mean_, 2) + "," + FormatDouble(stddev_, 2) +
         ")";
}

// Saturate at exp(mu + 4 sigma) so nearly all mass lands inside [0, 1).
LognormalUnit::LognormalUnit(double mu, double sigma)
    : mu_(mu), sigma_(sigma), saturation_(std::exp(mu + 4.0 * sigma)) {}

double LognormalUnit::Sample(Rng* rng) const {
  const double x = std::exp(mu_ + sigma_ * rng->NextGaussian());
  // A division, not a multiply by 1 / saturation_: that rounds differently
  // and would change the keys.
  return std::min(x / saturation_, std::nextafter(1.0, 0.0));
}

void LognormalUnit::Skip(Rng* rng) const { rng->SkipGaussian(); }

std::string LognormalUnit::name() const {
  return "lognormal(" + FormatDouble(mu_, 2) + "," + FormatDouble(sigma_, 2) +
         ")";
}

double ParetoUnit::Sample(Rng* rng) const {
  // Inverse-CDF of a Pareto with x_m = 1, truncated at 10^4.
  constexpr double kCap = 1e4;
  double u = rng->NextDouble();
  // Avoid u == 1 which would blow up.
  u = std::min(u, std::nextafter(1.0, 0.0));
  const double x = std::pow(1.0 - u, -1.0 / alpha_);
  return std::min(x, kCap) / kCap * (1.0 - 1e-12);
}

void ParetoUnit::Skip(Rng* rng) const { rng->Next(); }  // NextDouble's draw.

std::string ParetoUnit::name() const {
  return "pareto(" + FormatDouble(alpha_, 2) + ")";
}

MixtureUnit::MixtureUnit(
    std::vector<std::unique_ptr<UnitDistribution>> components,
    std::vector<double> weights)
    : components_(std::move(components)) {
  LSBENCH_ASSERT(!components_.empty());
  LSBENCH_ASSERT(components_.size() == weights.size());
  double total = 0.0;
  for (double w : weights) {
    LSBENCH_ASSERT(w >= 0.0);
    total += w;
  }
  LSBENCH_ASSERT(total > 0.0);
  double acc = 0.0;
  for (double w : weights) {
    acc += w / total;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;
}

const UnitDistribution& MixtureUnit::Pick(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  const size_t idx = std::min<size_t>(it - cumulative_.begin(),
                                      components_.size() - 1);
  return *components_[idx];
}

double MixtureUnit::Sample(Rng* rng) const { return Pick(rng).Sample(rng); }

void MixtureUnit::Skip(Rng* rng) const { Pick(rng).Skip(rng); }

std::string MixtureUnit::name() const {
  std::string out = "mixture(";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out += "+";
    out += components_[i]->name();
  }
  out += ")";
  return out;
}

ClusteredUnit::ClusteredUnit(int n_clusters, double spread, uint64_t seed)
    : spread_(spread) {
  LSBENCH_ASSERT(n_clusters > 0);
  Rng rng(seed);
  centers_.reserve(n_clusters);
  for (int i = 0; i < n_clusters; ++i) centers_.push_back(rng.NextDouble());
  std::sort(centers_.begin(), centers_.end());
}

double ClusteredUnit::Sample(Rng* rng) const {
  const size_t idx = rng->NextBounded(centers_.size());
  return FoldIntoUnit(centers_[idx] + spread_ * rng->NextGaussian());
}

void ClusteredUnit::Skip(Rng* rng) const {
  rng->NextBounded(centers_.size());
  rng->SkipGaussian();
}

std::string ClusteredUnit::name() const {
  return "clustered(" + std::to_string(centers_.size()) + "," +
         FormatDouble(spread_, 3) + ")";
}

BlendUnit::BlendUnit(const UnitDistribution* a, const UnitDistribution* b,
                     double t)
    : a_(a), b_(b), t_(std::clamp(t, 0.0, 1.0)) {
  LSBENCH_ASSERT(a != nullptr && b != nullptr);
}

const UnitDistribution& BlendUnit::Pick(Rng* rng) const {
  return rng->NextBool(t_) ? *b_ : *a_;
}

double BlendUnit::Sample(Rng* rng) const { return Pick(rng).Sample(rng); }

void BlendUnit::Skip(Rng* rng) const { Pick(rng).Skip(rng); }

std::string BlendUnit::name() const {
  return "blend(" + a_->name() + "->" + b_->name() + "," +
         FormatDouble(t_, 2) + ")";
}

std::unique_ptr<UnitDistribution> MakeUniform() {
  return std::make_unique<UniformUnit>();
}
std::unique_ptr<UnitDistribution> MakeGaussian(double mean, double stddev) {
  return std::make_unique<GaussianUnit>(mean, stddev);
}
std::unique_ptr<UnitDistribution> MakeLognormal(double mu, double sigma) {
  return std::make_unique<LognormalUnit>(mu, sigma);
}
std::unique_ptr<UnitDistribution> MakePareto(double alpha) {
  return std::make_unique<ParetoUnit>(alpha);
}
std::unique_ptr<UnitDistribution> MakeClustered(int n_clusters, double spread,
                                                uint64_t seed) {
  return std::make_unique<ClusteredUnit>(n_clusters, spread, seed);
}

}  // namespace lsbench
