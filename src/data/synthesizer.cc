#include "data/synthesizer.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "data/distinct_draws.h"
#include "stats/model.h"
#include "util/assert.h"
#include "util/random.h"

namespace lsbench {

Dataset SynthesizeDatasetLike(const Dataset& original,
                              const SynthesizeOptions& options) {
  LSBENCH_ASSERT(!original.empty());
  const Key domain_max = original.domain_max;
  LSBENCH_ASSERT(original.keys.back() < domain_max);
  const size_t target =
      options.num_keys > 0 ? options.num_keys : original.size();
  const CdfModel cdf =
      CdfModel::FitFromSorted(original.keys, options.cdf_knots);

  Dataset synthetic;
  synthetic.name = "synthetic_like_" + original.name;
  synthetic.domain_max = domain_max;
  synthetic.seed = options.seed;

  Rng rng(options.seed);
  // Inverse-transform sampling with a small additive jitter so quantile
  // plateaus (flat CDF stretches) do not alias onto identical keys. The
  // inverse never passes the original's largest key, so base < domain_max,
  // and a jitter that would leave the domain clamps to its last key
  // without overflowing.
  synthetic.keys = DistinctSortedDraws(
      target, target * 100 + 1000,
      [&cdf, &rng, domain_max](Key* out, size_t count) {
        for (size_t i = 0; i < count; ++i) {
          const Key base = cdf.EvaluateInverse(rng.NextDouble());
          const Key jitter = rng.NextBounded(256);
          out[i] = jitter < domain_max - base ? base + jitter : domain_max - 1;
        }
      });
  return synthetic;
}

FittedWorkload FitPhaseSpecFromTrace(const OperationTrace& trace,
                                     Key domain_max) {
  FittedWorkload fitted;
  fitted.phase.name = "fitted_from_trace";
  if (trace.empty()) return fitted;

  // 1. Operation mix: relative frequencies.
  const std::vector<uint64_t> hist = trace.TypeHistogram();
  const double total = static_cast<double>(trace.size());
  const auto fraction = [&](OpType type) {
    return static_cast<double>(hist[static_cast<size_t>(type)]) / total;
  };
  fitted.phase.mix.get = fraction(OpType::kGet);
  fitted.phase.mix.scan = fraction(OpType::kScan);
  fitted.phase.mix.insert = fraction(OpType::kInsert);
  fitted.phase.mix.update = fraction(OpType::kUpdate);
  fitted.phase.mix.del = fraction(OpType::kDelete);
  fitted.phase.mix.range_count = fraction(OpType::kRangeCount);

  // 2. Access skew: mass of read accesses on the hottest 10% of distinct
  //    keys, mapped onto the closest generator family.
  std::unordered_map<Key, uint64_t> access_counts;
  uint64_t reads = 0;
  for (const Operation& op : trace.operations()) {
    if (op.type == OpType::kGet || op.type == OpType::kUpdate ||
        op.type == OpType::kScan) {
      ++access_counts[op.key];
      ++reads;
    }
  }
  fitted.distinct_keys = access_counts.size();
  if (reads > 0 && !access_counts.empty()) {
    std::vector<uint64_t> counts;
    counts.reserve(access_counts.size());
    for (const auto& [k, c] : access_counts) counts.push_back(c);
    std::sort(counts.begin(), counts.end(), std::greater<uint64_t>());
    const size_t hot = std::max<size_t>(1, counts.size() / 10);
    uint64_t hot_mass = 0;
    for (size_t i = 0; i < hot; ++i) hot_mass += counts[i];
    fitted.hot10_mass =
        static_cast<double>(hot_mass) / static_cast<double>(reads);
  }
  // Uniform access puts ~10% of mass on the top decile; zipfian(0.99) puts
  // most of it there; a hotspot in between. Thresholds chosen accordingly.
  if (fitted.hot10_mass < 0.2) {
    fitted.phase.access = AccessPattern::kUniform;
  } else if (fitted.hot10_mass < 0.6) {
    fitted.phase.access = AccessPattern::kHotSpot;
    fitted.phase.access_param = 0.1;
  } else {
    fitted.phase.access = AccessPattern::kZipfian;
    fitted.phase.access_param = 0.99;
  }

  // 3. Scan length: mean over observed scans.
  uint64_t scan_total = 0, scan_count = 0;
  for (const Operation& op : trace.operations()) {
    if (op.type == OpType::kScan) {
      scan_total += op.scan_length;
      ++scan_count;
    }
  }
  if (scan_count > 0) {
    fitted.phase.scan_length =
        static_cast<uint32_t>(std::max<uint64_t>(1, scan_total / scan_count));
  }

  // 4. Range-count selectivity: mean relative predicate width.
  if (domain_max > 0) {
    double width_sum = 0.0;
    uint64_t ranges = 0;
    for (const Operation& op : trace.operations()) {
      if (op.type == OpType::kRangeCount && op.range_end >= op.key) {
        width_sum += static_cast<double>(op.range_end - op.key) /
                     static_cast<double>(domain_max);
        ++ranges;
      }
    }
    if (ranges > 0) {
      fitted.phase.range_selectivity = width_sum / static_cast<double>(ranges);
    }
  }

  fitted.phase.num_operations = trace.size();
  return fitted;
}

}  // namespace lsbench
