#ifndef LSBENCH_LEARNED_RMI_H_
#define LSBENCH_LEARNED_RMI_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "index/kv_index.h"
#include "learned/sorted_learned_index.h"
#include "stats/model.h"

namespace lsbench {

/// Training configuration for the RMI. `num_leaf_models` is the paper's
/// "longer training gives better performance" knob: more leaf models mean a
/// longer fit but tighter error bounds and faster lookups.
struct RmiOptions {
  int num_leaf_models = 256;
  /// Train on every k-th key (k >= 1); k > 1 trades accuracy for training
  /// time — the budgeted-training mechanism behind Fig. 1d sweeps.
  int train_sample_every = 1;
};

/// Two-stage Recursive Model Index position model (Kraska et al.,
/// SIGMOD'18): a root linear model picks a leaf linear model, and the
/// leaf's recorded maximum error bounds the window a lookup searches.
/// WindowFor is inline so the index body's lookup inlines it.
class RmiModel {
 public:
  explicit RmiModel(RmiOptions options);

  /// Fits root + leaf models + error bounds over `n` sorted unique keys.
  /// Replaces any previous fit.
  void Build(const Key* keys, size_t n);
  /// Drops the fit, as a Build over no keys would, without counting a
  /// Build.
  void Clear();

  /// [lo, hi) window holding the position of any fitted key. Requires a
  /// prior Build with n > 0.
  std::pair<size_t, size_t> WindowFor(Key key) const {
    const size_t leaf = LeafFor(key);
    const size_t pred =
        leaf_models_[leaf].PredictClamped(static_cast<double>(key), n_);
    const uint32_t err = leaf_errors_[leaf];
    const size_t lo = pred > err ? pred - err : 0;
    const size_t hi = std::min(n_, pred + err + 1);
    return {lo, hi};
  }

  size_t MemoryBytes() const {
    return leaf_models_.size() * (sizeof(LinearModel) + sizeof(uint32_t));
  }

  /// Mean of the per-leaf maximum position errors — the model quality
  /// signal the adaptability experiments watch degrade under drift, and
  /// what SutStats reports as model_error.
  double model_error() const;
  uint32_t MaxLeafError() const;

  /// Number of (key, position) points the last Build actually regressed
  /// over (= n / train_sample_every, plus boundary points) — the
  /// training-effort figure cost sweeps report.
  size_t fit_work() const { return last_fit_points_; }
  /// Build calls since construction.
  size_t builds() const { return builds_; }

 private:
  size_t LeafFor(Key key) const {
    const size_t num_leaves = leaf_models_.size();
    if (num_leaves <= 1) return 0;
    const double pos = root_.Predict(static_cast<double>(key));
    double leaf =
        pos * static_cast<double>(num_leaves) / static_cast<double>(n_);
    if (leaf < 0.0) leaf = 0.0;
    const double max_leaf = static_cast<double>(num_leaves - 1);
    if (leaf > max_leaf) leaf = max_leaf;
    return static_cast<size_t>(leaf);
  }

  RmiOptions options_;
  size_t n_ = 0;
  LinearModel root_;
  std::vector<LinearModel> leaf_models_;
  std::vector<uint32_t> leaf_errors_;
  size_t last_fit_points_ = 0;
  size_t builds_ = 0;
};

/// Two-stage RMI over sorted 64-bit keys, with a delta buffer for writes:
/// root model -> leaf model -> bounded binary search inside the leaf's
/// recorded maximum error. Retrain() merges the delta and refits.
class RmiIndex final : public SortedLearnedIndex<RmiModel> {
 public:
  explicit RmiIndex(RmiOptions options = {})
      : SortedLearnedIndex(RmiModel(options)) {}

  std::string name() const override { return "rmi"; }
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_RMI_H_
