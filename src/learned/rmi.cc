#include "learned/rmi.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace lsbench {

RmiIndex::RmiIndex(RmiOptions options) : options_(options) {
  LSBENCH_ASSERT(options_.num_leaf_models >= 1);
  LSBENCH_ASSERT(options_.train_sample_every >= 1);
}

size_t RmiIndex::LeafFor(Key key) const {
  const size_t n = keys_.size();
  const size_t num_leaves = leaf_models_.size();
  if (num_leaves <= 1) return 0;
  const double pos = root_.Predict(static_cast<double>(key));
  double leaf = pos * static_cast<double>(num_leaves) / static_cast<double>(n);
  if (leaf < 0.0) leaf = 0.0;
  const double max_leaf = static_cast<double>(num_leaves - 1);
  if (leaf > max_leaf) leaf = max_leaf;
  return static_cast<size_t>(leaf);
}

void RmiIndex::Fit() {
  const size_t n = keys_.size();
  leaf_models_.clear();
  leaf_errors_.clear();
  leaf_start_.clear();
  last_fit_points_ = 0;
  if (n == 0) {
    root_ = LinearModel{};
    return;
  }
  root_ = FitLinear(keys_.data(), n);
  // Least squares over ascending positions cannot produce a negative slope,
  // but guard against numeric pathologies: a monotone root is required for
  // contiguous leaf ranges.
  if (root_.slope < 0.0) {
    root_.slope = 0.0;
    root_.intercept = static_cast<double>(n) / 2.0;
  }

  const size_t num_leaves = std::min<size_t>(
      static_cast<size_t>(options_.num_leaf_models), std::max<size_t>(n, 1));
  leaf_models_.resize(num_leaves);
  leaf_errors_.assign(num_leaves, 0);
  leaf_start_.assign(num_leaves + 1, n);

  // Assign keys to leaves with the same formula lookups use; the mapping is
  // monotone, so each leaf covers a contiguous range of positions.
  size_t start = 0;
  for (size_t leaf = 0; leaf < num_leaves; ++leaf) {
    leaf_start_[leaf] = start;
    size_t end = start;
    while (end < n && LeafFor(keys_[end]) == leaf) ++end;
    // Fit this leaf on its keys (optionally subsampled), targets = global
    // positions.
    const size_t count = end - start;
    if (count == 0) {
      // Empty leaf: inherit a flat model pointing at the boundary.
      leaf_models_[leaf].slope = 0.0;
      leaf_models_[leaf].intercept = static_cast<double>(start);
      leaf_errors_[leaf] = 0;
    } else {
      LinearFitSums fit;
      double last_x = 0.0;
      for (size_t i = start; i < end;
           i += static_cast<size_t>(options_.train_sample_every)) {
        last_x = static_cast<double>(keys_[i]);
        fit.Add(last_x, static_cast<double>(i));
      }
      // Always include the last key so the model sees the full span.
      if (fit.count() == 0 ||
          last_x != static_cast<double>(keys_[end - 1])) {
        fit.Add(static_cast<double>(keys_[end - 1]),
                static_cast<double>(end - 1));
      }
      leaf_models_[leaf] = fit.Fit();
      last_fit_points_ += fit.count();
      // The error bound must be exact over *all* keys (correctness), even
      // when the fit was subsampled (cost).
      uint32_t max_err = 0;
      for (size_t i = start; i < end; ++i) {
        const size_t pred = leaf_models_[leaf].PredictClamped(
            static_cast<double>(keys_[i]), n);
        const size_t err = pred > i ? pred - i : i - pred;
        max_err = std::max<uint32_t>(max_err, static_cast<uint32_t>(err));
      }
      leaf_errors_[leaf] = max_err;
    }
    start = end;
  }
  leaf_start_[num_leaves] = n;
  LSBENCH_ASSERT_MSG(start == n, "leaf assignment covered all keys");
}

size_t RmiIndex::FindStatic(Key key) const {
  const size_t n = keys_.size();
  if (n == 0) return 0;
  const size_t leaf = LeafFor(key);
  const size_t pred =
      leaf_models_[leaf].PredictClamped(static_cast<double>(key), n);
  const uint32_t err = leaf_errors_[leaf];
  const size_t lo = pred > err ? pred - err : 0;
  const size_t hi = std::min(n, pred + err + 1);
  const auto begin = keys_.begin() + lo;
  const auto end = keys_.begin() + hi;
  const auto it = std::lower_bound(begin, end, key);
  if (it != end && *it == key) return it - keys_.begin();
  return n;
}

std::optional<Value> RmiIndex::Get(Key key) const {
  if (delta_.empty()) {
    const size_t pos = FindStatic(key);
    if (pos >= keys_.size()) return std::nullopt;
    return values_[pos];
  }
  Value v = 0;
  switch (delta_.Lookup(key, &v)) {
    case DeltaBuffer::Presence::kLive:
      return v;
    case DeltaBuffer::Presence::kTombstone:
      return std::nullopt;
    case DeltaBuffer::Presence::kAbsent:
      break;
  }
  const size_t pos = FindStatic(key);
  if (pos >= keys_.size()) return std::nullopt;
  return values_[pos];
}

bool RmiIndex::Insert(Key key, Value value) {
  Value unused = 0;
  const auto presence = delta_.Lookup(key, &unused);
  const bool existed =
      presence == DeltaBuffer::Presence::kLive ||
      (presence == DeltaBuffer::Presence::kAbsent && StaticContains(key));
  delta_.Put(key, value);
  if (!existed) ++live_count_;
  return !existed;
}

bool RmiIndex::Erase(Key key) {
  Value unused = 0;
  const auto presence = delta_.Lookup(key, &unused);
  if (presence == DeltaBuffer::Presence::kTombstone) return false;
  if (presence == DeltaBuffer::Presence::kLive) {
    delta_.Delete(key);
    --live_count_;
    return true;
  }
  if (StaticContains(key)) {
    delta_.Delete(key);
    --live_count_;
    return true;
  }
  return false;
}

size_t RmiIndex::Scan(Key from, size_t limit,
                      std::vector<KeyValue>* out) const {
  return delta_.MergeScan(keys_, values_, from, limit, out);
}

size_t RmiIndex::MemoryBytes() const {
  return keys_.size() * (sizeof(Key) + sizeof(Value)) +
         leaf_models_.size() *
             (sizeof(LinearModel) + sizeof(uint32_t) + sizeof(size_t)) +
         delta_.MemoryBytes();
}

template <typename View>
void RmiIndex::BulkLoadFrom(const View& view) {
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
  Fit();
}

void RmiIndex::BulkLoad(const std::vector<KeyValue>& sorted_pairs) {
  BulkLoadFrom(SortedPairsView{&sorted_pairs});
}

void RmiIndex::BulkLoadKeys(std::span<const Key> sorted_keys,
                           Value first_value) {
  BulkLoadFrom(SortedKeysView{sorted_keys, first_value});
}

size_t RmiIndex::Retrain() {
  delta_.MergeInto(&keys_, &values_);
  live_count_ = keys_.size();
  Fit();
  return keys_.size();
}

double RmiIndex::MeanLeafError() const {
  if (leaf_errors_.empty()) return 0.0;
  double sum = 0.0;
  for (uint32_t e : leaf_errors_) sum += static_cast<double>(e);
  return sum / static_cast<double>(leaf_errors_.size());
}

uint32_t RmiIndex::MaxLeafError() const {
  uint32_t max_err = 0;
  for (uint32_t e : leaf_errors_) max_err = std::max(max_err, e);
  return max_err;
}

}  // namespace lsbench
