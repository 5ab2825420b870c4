#ifndef LSBENCH_STATS_SIMILARITY_H_
#define LSBENCH_STATS_SIMILARITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lsbench {

/// Result of a two-sample Kolmogorov–Smirnov test: the paper's suggested
/// estimator for similarity across *data* distributions (§V-D1).
struct KsResult {
  double statistic = 0.0;  ///< sup |F1(x) - F2(x)| in [0, 1].
  double p_value = 1.0;    ///< Asymptotic p-value (Smirnov distribution).
};

/// Two-sample KS test over raw samples. Copies and sorts internally.
KsResult KolmogorovSmirnov(std::vector<double> a, std::vector<double> b);

/// Unbiased estimate of the squared Maximum Mean Discrepancy between two
/// samples using an RBF kernel — the paper's alternative data-similarity
/// estimator (Gretton et al.). `bandwidth <= 0` selects the median heuristic.
/// Cost is O(n^2); callers should subsample first (see Subsample below).
double MmdSquared(const std::vector<double>& a, const std::vector<double>& b,
                  double bandwidth = -1.0);

/// Weighted (multiset) Jaccard: sum(min(wa, wb)) / sum(max(wa, wb)) over the
/// union of keys. Inputs are parallel key/weight vectors per side.
double WeightedJaccard(const std::vector<uint64_t>& keys_a,
                       const std::vector<double>& weights_a,
                       const std::vector<uint64_t>& keys_b,
                       const std::vector<double>& weights_b);

/// Deterministically subsamples `values` down to at most `max_n` elements
/// using a fixed stride; preserves distribution shape for KS/MMD inputs.
std::vector<double> Subsample(const std::vector<double>& values, size_t max_n);

}  // namespace lsbench

#endif  // LSBENCH_STATS_SIMILARITY_H_
