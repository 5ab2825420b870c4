#ifndef LSBENCH_LEARNED_SORTED_LEARNED_INDEX_H_
#define LSBENCH_LEARNED_SORTED_LEARNED_INDEX_H_

#include <span>
#include <utility>
#include <vector>

#include "index/kv_index.h"
#include "learned/delta_buffer.h"

namespace lsbench {

/// The static learned index both RmiIndex and PgmIndex are: sorted key and
/// value arrays, a position model fitted over the keys, and a delta buffer
/// that takes every write until Retrain() merges it and refits the model.
/// A lookup checks the delta, then binary-searches the window the model
/// names in the static keys.
///
/// Loading and fitting are separate steps. LoadUnfitted fills the arrays
/// and drops any earlier fit; until Retrain() fits the model, a lookup
/// binary-searches all of the static keys, and the index reports no model
/// (MemoryBytes without it, model() empty). Retrain() holds the one
/// model fit. The KvIndex bulk loads keep that interface's contract of a
/// ready index: they are LoadUnfitted followed by Retrain().
///
/// `Model` provides
///   void Build(const Key* keys, size_t n);  // fit n sorted unique keys
///   void Clear();                           // drop the fit
///   std::pair<size_t, size_t> WindowFor(Key key) const;
///       // [lo, hi) holding the position of any fitted key; called only
///       // after a Build with n > 0
///   size_t MemoryBytes() const;  // 0 once cleared
///   double model_error() const;  // what SutStats reports as model_error
///   size_t fit_work() const;     // points the last Build fitted over
///   size_t builds() const;       // Build calls since construction
/// The definitions are instantiated for RmiModel and SegmentModel in
/// sorted_learned_index.cc.
template <typename Model>
class SortedLearnedIndex : public KvIndex {
 public:
  std::optional<Value> Get(Key key) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t Scan(Key from, size_t limit,
              std::vector<KeyValue>* out) const override;
  size_t size() const override { return live_count_; }
  size_t MemoryBytes() const override;
  /// LoadUnfitted, then Retrain(): an index-level bulk load returns an
  /// index that serves through its fitted model.
  void BulkLoad(const std::vector<KeyValue>& sorted_pairs) override;
  void BulkLoadKeys(std::span<const Key> sorted_keys,
                    Value first_value) override;

  /// Replaces the contents as the bulk loads do, but fits nothing and
  /// drops any earlier fit: lookups binary-search the static keys until
  /// Retrain().
  void LoadUnfitted(const std::vector<KeyValue>& sorted_pairs);
  void LoadUnfitted(std::span<const Key> sorted_keys, Value first_value);

  /// Merges the delta buffer into the static arrays and fits the model.
  /// Returns the number of keys trained over.
  size_t Retrain();

  size_t delta_size() const { return delta_.size(); }
  size_t static_size() const { return keys_.size(); }
  /// The sorted static keys: the ones loaded, or merged by the last
  /// Retrain(). They are every live key only while delta_size() == 0.
  const std::vector<Key>& static_keys() const { return keys_; }
  const Model& model() const { return model_; }

 protected:
  explicit SortedLearnedIndex(Model model) : model_(std::move(model)) {}

 private:
  /// The one load body (View: index/kv_index.h): fills the arrays, clears
  /// the delta and drops the fit.
  template <typename View>
  void LoadFrom(const View& view);
  /// Position of `key` in keys_ or keys_.size() if absent.
  size_t FindStatic(Key key) const;
  bool StaticContains(Key key) const { return FindStatic(key) < keys_.size(); }

  Model model_;
  std::vector<Key> keys_;
  std::vector<Value> values_;
  DeltaBuffer delta_;
  size_t live_count_ = 0;
  bool fitted_ = false;
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_SORTED_LEARNED_INDEX_H_
