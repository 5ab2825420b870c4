#ifndef LSBENCH_LEARNED_RMI_H_
#define LSBENCH_LEARNED_RMI_H_

#include <span>
#include <string>
#include <vector>

#include "index/kv_index.h"
#include "learned/delta_buffer.h"
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

/// Two-stage Recursive Model Index (Kraska et al., SIGMOD'18) over sorted
/// 64-bit keys, with a delta buffer for writes. The static part answers
/// lookups via root model -> leaf model -> bounded binary search inside the
/// leaf's recorded maximum error. Retrain() merges the delta and refits.
class RmiIndex final : public KvIndex {
 public:
  explicit RmiIndex(RmiOptions options = {});

  std::string name() const override { return "rmi"; }
  std::optional<Value> Get(Key key) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t Scan(Key from, size_t limit,
              std::vector<KeyValue>* out) const override;
  size_t size() const override { return live_count_; }
  size_t MemoryBytes() const override;
  void BulkLoad(const std::vector<KeyValue>& sorted_pairs) override;
  void BulkLoadKeys(std::span<const Key> sorted_keys,
                    Value first_value) override;

  /// Merges the delta buffer into the static arrays and refits all models.
  /// Returns the number of keys trained over.
  size_t Retrain();

  size_t delta_size() const { return delta_.size(); }
  size_t static_size() const { return keys_.size(); }
  /// The sorted keys the models were last fitted over. They are every live
  /// key only while delta_size() == 0.
  const std::vector<Key>& static_keys() const { return keys_; }

  /// Mean/max of the per-leaf maximum position errors — the model quality
  /// signal the adaptability experiments watch degrade under drift.
  double MeanLeafError() const;
  uint32_t MaxLeafError() const;

  /// Number of (key, position) points the last Fit actually regressed over
  /// (= static_size / train_sample_every, plus boundary points) — the
  /// training-effort figure cost sweeps report.
  size_t last_fit_points() const { return last_fit_points_; }

  const RmiOptions& options() const { return options_; }

 private:
  /// The one body of both bulk loads (View: index/kv_index.h).
  template <typename View>
  void BulkLoadFrom(const View& view);
  /// Fits root + leaf models + error bounds over keys_.
  void Fit();
  size_t LeafFor(Key key) const;
  /// Position of `key` in keys_ or keys_.size() if absent.
  size_t FindStatic(Key key) const;
  bool StaticContains(Key key) const { return FindStatic(key) < keys_.size(); }

  RmiOptions options_;
  std::vector<Key> keys_;
  std::vector<Value> values_;
  LinearModel root_;
  std::vector<LinearModel> leaf_models_;
  std::vector<uint32_t> leaf_errors_;
  /// First static position covered by each leaf (ascending); leaf i covers
  /// [leaf_start_[i], leaf_start_[i+1]).
  std::vector<size_t> leaf_start_;
  DeltaBuffer delta_;
  size_t live_count_ = 0;
  size_t last_fit_points_ = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_RMI_H_
