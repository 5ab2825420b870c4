#include "stats/drift.h"

#include <algorithm>
#include <cmath>

#include "stats/similarity.h"
#include "util/assert.h"
#include "workload/generator.h"

namespace lsbench {

namespace {

/// The drift-factor blend. Weights sum to 1 so the factor inherits the
/// components' [0, 1] range; the clamp only guards float round-off.
constexpr double kKsWeight = 0.30;
constexpr double kMmdWeight = 0.20;
constexpr double kOverlapWeight = 0.25;
constexpr double kOpMixWeight = 0.25;

/// Histograms normalized keys into `buckets` equal-width bins and emits the
/// non-empty ones as parallel (bucket index, fraction) vectors — the inputs
/// WeightedJaccard expects. Bucket order is ascending, so accumulation is
/// deterministic.
void BucketKeys(const std::vector<double>& normalized_keys, size_t buckets,
                std::vector<uint64_t>* out_buckets,
                std::vector<double>* out_weights) {
  LSBENCH_ASSERT(buckets > 0);
  std::vector<double> counts(buckets, 0.0);
  for (double v : normalized_keys) {
    const double clamped = std::clamp(v, 0.0, 1.0);
    size_t idx = static_cast<size_t>(clamped * static_cast<double>(buckets));
    if (idx >= buckets) idx = buckets - 1;
    counts[idx] += 1.0;
  }
  const double total = static_cast<double>(normalized_keys.size());
  out_buckets->clear();
  out_weights->clear();
  if (total == 0.0) return;
  for (size_t i = 0; i < buckets; ++i) {
    if (counts[i] > 0.0) {
      out_buckets->push_back(static_cast<uint64_t>(i));
      out_weights->push_back(counts[i] / total);
    }
  }
}

}  // namespace

DriftMeter::DriftMeter(const DriftMeterOptions& options) : options_(options) {
  LSBENCH_ASSERT(options_.sample_ops > 0);
  LSBENCH_ASSERT(options_.overlap_buckets > 0);
}

PhaseDistributionSample DriftMeter::SamplePhase(const Dataset& dataset,
                                                const PhaseSpec& phase) const {
  LSBENCH_ASSERT(!dataset.empty());
  // A throwaway generator for exactly the sample budget: transitions are a
  // stream-level concern (blending between generators), so they are zeroed
  // here — the sample characterizes the phase's own steady state.
  PhaseSpec probe = phase;
  probe.num_operations = options_.sample_ops;
  probe.transition_operations = 0;
  probe.transition_in = TransitionKind::kAbrupt;
  OperationGenerator gen(&dataset, probe, options_.seed);

  const double domain = dataset.domain_max > 0
                            ? static_cast<double>(dataset.domain_max)
                            : static_cast<double>(dataset.keys.back()) + 1.0;
  PhaseDistributionSample sample;
  sample.normalized_keys.reserve(options_.sample_ops);
  uint64_t op_counts[kNumOpTypes] = {0};
  for (uint64_t i = 0; i < options_.sample_ops; ++i) {
    const Operation op = gen.Next();
    ++op_counts[static_cast<int>(op.type)];
    if (IsBatchOp(op.type) && op.batch_size > 0) {
      for (uint32_t j = 0; j < op.batch_size; ++j) {
        sample.normalized_keys.push_back(
            std::clamp(static_cast<double>(op.batch_keys[j]) / domain, 0.0,
                       1.0));
      }
    } else {
      sample.normalized_keys.push_back(
          std::clamp(static_cast<double>(op.key) / domain, 0.0, 1.0));
    }
  }
  for (int t = 0; t < kNumOpTypes; ++t) {
    sample.op_mix[t] = static_cast<double>(op_counts[t]) /
                       static_cast<double>(options_.sample_ops);
  }
  return sample;
}

DriftComponents DriftMeter::Measure(const PhaseDistributionSample& a,
                                    const PhaseDistributionSample& b) const {
  DriftComponents out;
  out.key_ks = KolmogorovSmirnov(a.normalized_keys, b.normalized_keys)
                   .statistic;

  // The unbiased MMD^2 estimator can dip slightly below zero for identical
  // samples; clamp before the sqrt so identical phases read exactly 0.
  const double mmd2 =
      MmdSquared(Subsample(a.normalized_keys, options_.mmd_subsample),
                 Subsample(b.normalized_keys, options_.mmd_subsample));
  out.key_mmd = std::clamp(std::sqrt(std::max(0.0, mmd2)), 0.0, 1.0);

  std::vector<uint64_t> buckets_a, buckets_b;
  std::vector<double> weights_a, weights_b;
  BucketKeys(a.normalized_keys, options_.overlap_buckets, &buckets_a,
             &weights_a);
  BucketKeys(b.normalized_keys, options_.overlap_buckets, &buckets_b,
             &weights_b);
  out.key_overlap = WeightedJaccard(buckets_a, weights_a, buckets_b,
                                    weights_b);

  double tv = 0.0;
  for (int t = 0; t < kNumOpTypes; ++t) {
    tv += std::fabs(a.op_mix[t] - b.op_mix[t]);
  }
  out.op_mix_tv = std::clamp(0.5 * tv, 0.0, 1.0);

  out.factor = std::clamp(kKsWeight * out.key_ks + kMmdWeight * out.key_mmd +
                              kOverlapWeight * (1.0 - out.key_overlap) +
                              kOpMixWeight * out.op_mix_tv,
                          0.0, 1.0);
  return out;
}

}  // namespace lsbench
