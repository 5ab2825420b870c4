#include "learned/delta_buffer.h"

#include <algorithm>

namespace lsbench {

DeltaBuffer::Presence DeltaBuffer::Lookup(Key key, Value* value) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return Presence::kAbsent;
  if (it->second.tombstone) return Presence::kTombstone;
  if (value != nullptr) *value = it->second.value;
  return Presence::kLive;
}

void DeltaBuffer::Put(Key key, Value value) {
  entries_[key] = Entry{false, value};
}

void DeltaBuffer::Delete(Key key) { entries_[key] = Entry{true, 0}; }

void DeltaBuffer::MergeInto(std::vector<Key>* keys,
                            std::vector<Value>* values) {
  if (entries_.empty()) return;
  std::vector<Key> merged_keys;
  std::vector<Value> merged_values;
  merged_keys.reserve(keys->size() + entries_.size());
  merged_values.reserve(keys->size() + entries_.size());
  size_t si = 0;
  auto dit = entries_.begin();
  while (si < keys->size() || dit != entries_.end()) {
    if (dit == entries_.end() ||
        (si < keys->size() && (*keys)[si] < dit->first)) {
      merged_keys.push_back((*keys)[si]);
      merged_values.push_back((*values)[si]);
      ++si;
      continue;
    }
    if (si < keys->size() && (*keys)[si] == dit->first) {
      ++si;  // Delta shadows the static entry.
    }
    if (!dit->second.tombstone) {
      merged_keys.push_back(dit->first);
      merged_values.push_back(dit->second.value);
    }
    ++dit;
  }
  keys->swap(merged_keys);
  values->swap(merged_values);
  entries_.clear();
}

size_t DeltaBuffer::MergeScan(const std::vector<Key>& static_keys,
                              const std::vector<Value>& static_values,
                              Key from, size_t limit,
                              std::vector<KeyValue>* out) const {
  size_t si = std::lower_bound(static_keys.begin(), static_keys.end(), from) -
              static_keys.begin();
  auto dit = entries_.lower_bound(from);
  size_t appended = 0;
  while (appended < limit &&
         (si < static_keys.size() || dit != entries_.end())) {
    const bool take_delta =
        dit != entries_.end() &&
        (si >= static_keys.size() || dit->first <= static_keys[si]);
    if (take_delta) {
      if (si < static_keys.size() && static_keys[si] == dit->first) {
        ++si;  // Shadowed.
      }
      if (!dit->second.tombstone) {
        out->emplace_back(dit->first, dit->second.value);
        ++appended;
      }
      ++dit;
    } else {
      out->emplace_back(static_keys[si], static_values[si]);
      ++si;
      ++appended;
    }
  }
  return appended;
}

}  // namespace lsbench
