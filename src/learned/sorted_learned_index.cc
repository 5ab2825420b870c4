#include "learned/sorted_learned_index.h"

#include <algorithm>

#include "learned/rmi.h"
#include "learned/segment_model.h"
#include "util/assert.h"

namespace lsbench {

template <typename Model>
size_t SortedLearnedIndex<Model>::FindStatic(Key key) const {
  const size_t n = keys_.size();
  if (n == 0) return 0;
  auto begin = keys_.begin();
  auto end = keys_.end();
  if (fitted_) {
    const auto [lo, hi] = model_.WindowFor(key);
    begin = keys_.begin() + lo;
    end = keys_.begin() + hi;
  }
  const auto it = std::lower_bound(begin, end, key);
  if (it != end && *it == key) return it - keys_.begin();
  return n;
}

template <typename Model>
std::optional<Value> SortedLearnedIndex<Model>::Get(Key key) const {
  if (!delta_.empty()) {
    Value v = 0;
    switch (delta_.Lookup(key, &v)) {
      case DeltaBuffer::Presence::kLive:
        return v;
      case DeltaBuffer::Presence::kTombstone:
        return std::nullopt;
      case DeltaBuffer::Presence::kAbsent:
        break;
    }
  }
  const size_t pos = FindStatic(key);
  if (pos >= keys_.size()) return std::nullopt;
  return values_[pos];
}

template <typename Model>
bool SortedLearnedIndex<Model>::Insert(Key key, Value value) {
  Value unused = 0;
  const auto presence = delta_.Lookup(key, &unused);
  const bool existed =
      presence == DeltaBuffer::Presence::kLive ||
      (presence == DeltaBuffer::Presence::kAbsent && StaticContains(key));
  delta_.Put(key, value);
  if (!existed) ++live_count_;
  return !existed;
}

template <typename Model>
bool SortedLearnedIndex<Model>::Erase(Key key) {
  Value unused = 0;
  const auto presence = delta_.Lookup(key, &unused);
  if (presence == DeltaBuffer::Presence::kTombstone) return false;
  if (presence == DeltaBuffer::Presence::kAbsent && !StaticContains(key)) {
    return false;
  }
  delta_.Delete(key);
  --live_count_;
  return true;
}

template <typename Model>
size_t SortedLearnedIndex<Model>::Scan(Key from, size_t limit,
                                       std::vector<KeyValue>* out) const {
  return delta_.MergeScan(keys_, values_, from, limit, out);
}

template <typename Model>
size_t SortedLearnedIndex<Model>::MemoryBytes() const {
  return keys_.size() * (sizeof(Key) + sizeof(Value)) + model_.MemoryBytes() +
         delta_.MemoryBytes();
}

template <typename Model>
template <typename View>
void SortedLearnedIndex<Model>::LoadFrom(const View& view) {
  const size_t n = view.size();
  keys_.clear();
  values_.clear();
  keys_.reserve(n);
  values_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Key k = view.key(i);
    LSBENCH_ASSERT_MSG(keys_.empty() || keys_.back() < k,
                       "BulkLoad requires strictly ascending keys");
    keys_.push_back(k);
    values_.push_back(view.value(i));
  }
  delta_.Clear();
  live_count_ = keys_.size();
  model_.Clear();
  fitted_ = false;
}

template <typename Model>
void SortedLearnedIndex<Model>::LoadUnfitted(
    const std::vector<KeyValue>& sorted_pairs) {
  LoadFrom(SortedPairsView{&sorted_pairs});
}

template <typename Model>
void SortedLearnedIndex<Model>::LoadUnfitted(std::span<const Key> sorted_keys,
                                             Value first_value) {
  LoadFrom(SortedKeysView{sorted_keys, first_value});
}

template <typename Model>
void SortedLearnedIndex<Model>::BulkLoad(
    const std::vector<KeyValue>& sorted_pairs) {
  LoadUnfitted(sorted_pairs);
  Retrain();
}

template <typename Model>
void SortedLearnedIndex<Model>::BulkLoadKeys(std::span<const Key> sorted_keys,
                                             Value first_value) {
  LoadUnfitted(sorted_keys, first_value);
  Retrain();
}

template <typename Model>
size_t SortedLearnedIndex<Model>::Retrain() {
  delta_.MergeInto(&keys_, &values_);
  live_count_ = keys_.size();
  model_.Build(keys_.data(), keys_.size());
  fitted_ = true;
  return keys_.size();
}

template class SortedLearnedIndex<RmiModel>;
template class SortedLearnedIndex<SegmentModel>;

}  // namespace lsbench
