#ifndef LSBENCH_STATS_DRIFT_H_
#define LSBENCH_STATS_DRIFT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
// kNumOpTypes sizes op_mix below.  lsbench-lint: allow(unused-include)
#include "workload/operation.h"
#include "workload/spec.h"

namespace lsbench {

/// Tuning knobs for drift measurement. Every field participates in the
/// measurement's determinism contract: the same options, dataset, and phase
/// specs always produce bit-identical drift factors.
struct DriftMeterOptions {
  /// Operations sampled per phase through a throwaway generator (the live
  /// stream is never touched — measurement has zero hot-path impact).
  uint64_t sample_ops = 4096;
  /// Seed for the throwaway generators. Both phases of a transition are
  /// sampled with the same seed, so two identical phase specs produce
  /// identical samples and a drift factor of exactly 0.
  uint64_t seed = 7;
  /// MMD is O(n^2); samples are deterministically subsampled to this many
  /// points first.
  size_t mmd_subsample = 512;
  /// Key-space buckets for the weighted-Jaccard overlap component.
  size_t overlap_buckets = 256;
};

/// What one phase "looks like" statistically: the touched-key distribution
/// (normalized into [0, 1) by the dataset's key domain) and the realized
/// operation-type mix. This is the input to drift measurement.
struct PhaseDistributionSample {
  std::vector<double> normalized_keys;   ///< One entry per touched key.
  double op_mix[kNumOpTypes] = {0.0};    ///< Fractions; sums to 1 (or 0).
};

/// Per-transition drift decomposition. Every component lives in [0, 1] with
/// 0 = "statistically identical" and 1 = "maximally different".
struct DriftComponents {
  double key_ks = 0.0;       ///< KS statistic over normalized touched keys.
  double key_mmd = 0.0;      ///< sqrt of clamped unbiased MMD^2 (RBF kernel).
  double key_overlap = 1.0;  ///< Weighted Jaccard over key-space buckets.
  double op_mix_tv = 0.0;    ///< Total-variation distance between op mixes.
  /// The scalar drift factor:
  ///   0.30 * key_ks + 0.20 * key_mmd
  ///     + 0.25 * (1 - key_overlap) + 0.25 * op_mix_tv,
  /// clamped into [0, 1]. Weights favor the key-distribution movement the
  /// paper's learned components chase, while keeping op-mix shifts visible
  /// even when the touched-key distribution is unchanged.
  double factor = 0.0;
};

/// Computes scalar drift factors between consecutive phase distributions —
/// the quantified version of the paper's "changing workloads" axis. Stateless
/// except for options; safe to use from tests and report code.
class DriftMeter {
 public:
  explicit DriftMeter(const DriftMeterOptions& options = {});

  const DriftMeterOptions& options() const { return options_; }

  /// Samples `options().sample_ops` operations from a throwaway generator
  /// for `phase` over `dataset` and distills them into a distribution
  /// sample. Deterministic: seeded by `options().seed`, independent of any
  /// live workload stream.
  PhaseDistributionSample SamplePhase(const Dataset& dataset,
                                      const PhaseSpec& phase) const;

  /// Drift decomposition between two phase samples. Symmetric: swapping
  /// `a` and `b` yields the same components. Measure(x, x) has factor 0.
  DriftComponents Measure(const PhaseDistributionSample& a,
                          const PhaseDistributionSample& b) const;

 private:
  DriftMeterOptions options_;
};

}  // namespace lsbench

#endif  // LSBENCH_STATS_DRIFT_H_
