#ifndef LSBENCH_LEARNED_DELTA_BUFFER_H_
#define LSBENCH_LEARNED_DELTA_BUFFER_H_

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "index/kv_index.h"

namespace lsbench {

/// Write buffer layered over a static learned structure (the classic
/// "learned main + delta" design): inserts and deletes land here until the
/// owner retrains and merges. Deletes are tombstones so they can mask keys
/// that live in the static part.
class DeltaBuffer {
 public:
  enum class Presence { kAbsent, kLive, kTombstone };

  /// How `key` appears in the buffer.
  Presence Lookup(Key key, Value* value) const;

  /// Records an insert/overwrite.
  void Put(Key key, Value value);

  /// Records a delete (tombstone).
  void Delete(Key key);

  /// Number of buffered entries (live + tombstones).
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

  size_t MemoryBytes() const {
    // std::map node: payload + 3 pointers + color, roughly.
    return entries_.size() * (sizeof(Key) + sizeof(Value) + 4 * sizeof(void*));
  }

  /// Merges the buffer into the static run given by parallel key/value
  /// arrays (sorted, tombstone-free): buffered entries shadow static ones
  /// and tombstones remove them. Used at retrain time. An empty buffer
  /// leaves both arrays untouched; otherwise one merge pass fills fresh
  /// arrays that replace them, and the buffer is cleared.
  void MergeInto(std::vector<Key>* keys, std::vector<Value>* values);

  /// Merge-scan: appends up to `limit` pairs with key >= `from` to `out`,
  /// combining the buffer with a static sorted view given by parallel
  /// key/value arrays. Returns the number appended.
  size_t MergeScan(const std::vector<Key>& static_keys,
                   const std::vector<Value>& static_values, Key from,
                   size_t limit, std::vector<KeyValue>* out) const;

 private:
  struct Entry {
    bool tombstone = false;
    Value value = 0;
  };
  std::map<Key, Entry> entries_;
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_DELTA_BUFFER_H_
