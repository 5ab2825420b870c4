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
/// `Model` provides
///   void Build(const Key* keys, size_t n);  // fit n sorted unique keys
///   std::pair<size_t, size_t> WindowFor(Key key) const;
///       // [lo, hi) holding the position of any fitted key; called only
///       // after a Build with n > 0
///   size_t MemoryBytes() const;
///   double model_error() const;  // what SutStats reports as model_error
///   size_t fit_work() const;     // points the last Build fitted over
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
  void BulkLoad(const std::vector<KeyValue>& sorted_pairs) override;
  void BulkLoadKeys(std::span<const Key> sorted_keys,
                    Value first_value) override;

  /// Merges the delta buffer into the static arrays and refits the model.
  /// Returns the number of keys trained over.
  size_t Retrain();

  size_t delta_size() const { return delta_.size(); }
  size_t static_size() const { return keys_.size(); }
  /// The sorted keys the model was last fitted over. They are every live
  /// key only while delta_size() == 0.
  const std::vector<Key>& static_keys() const { return keys_; }
  const Model& model() const { return model_; }

 protected:
  explicit SortedLearnedIndex(Model model) : model_(std::move(model)) {}

 private:
  /// The one body of both bulk loads (View: index/kv_index.h).
  template <typename View>
  void BulkLoadFrom(const View& view);
  /// Position of `key` in keys_ or keys_.size() if absent.
  size_t FindStatic(Key key) const;
  bool StaticContains(Key key) const { return FindStatic(key) < keys_.size(); }

  Model model_;
  std::vector<Key> keys_;
  std::vector<Value> values_;
  DeltaBuffer delta_;
  size_t live_count_ = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_SORTED_LEARNED_INDEX_H_
