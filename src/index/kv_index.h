#ifndef LSBENCH_INDEX_KV_INDEX_H_
#define LSBENCH_INDEX_KV_INDEX_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/key_value.h"

namespace lsbench {

/// Ordered key-value index abstraction shared by the traditional (B+-tree,
/// LSM tree) and learned (RMI, PGM, adaptive) data-access substrates. The
/// benchmark's SUTs compose implementations of this interface; keeping it
/// minimal is deliberate — the paper requires the benchmark to avoid
/// imposing architectural constraints on the SUT.
class KvIndex {
 public:
  virtual ~KvIndex() = default;

  /// Short implementation name, e.g. "btree", "rmi".
  virtual std::string name() const = 0;

  /// Point lookup.
  virtual std::optional<Value> Get(Key key) const = 0;

  /// Inserts or overwrites.
  virtual bool Insert(Key key, Value value) = 0;

  /// Removes the key; returns whether it existed.
  virtual bool Erase(Key key) = 0;

  /// Appends to `out` up to `limit` pairs with key >= `from`, ascending.
  /// Returns the number appended.
  virtual size_t Scan(Key from, size_t limit,
                      std::vector<KeyValue>* out) const = 0;

  /// Number of live entries.
  virtual size_t size() const = 0;

  /// Approximate resident memory in bytes (payload + structure overhead).
  virtual size_t MemoryBytes() const = 0;

  bool empty() const { return size() == 0; }

  /// Replaces the contents with `sorted_pairs` (strictly ascending keys).
  /// The index is ready to serve afterwards: a learned index has fitted
  /// its model (a learned SUT loads without fitting through its own entry
  /// and fits in Train).
  virtual void BulkLoad(const std::vector<KeyValue>& sorted_pairs) = 0;

  /// BulkLoad from keys alone (strictly ascending), key i holding value
  /// `first_value + i`: the index is built straight from `sorted_keys`,
  /// with no pair image.
  virtual void BulkLoadKeys(std::span<const Key> sorted_keys,
                            Value first_value) = 0;
};

/// The two forms a bulk load's input comes in, read element by element.
/// An index's pairs form and keys form instantiate one body on these, so
/// the loop that builds the index exists once.
///
/// (key, value) pairs, as KvIndex::BulkLoad takes them.
struct SortedPairsView {
  const std::vector<KeyValue>* pairs;
  size_t size() const { return pairs->size(); }
  Key key(size_t i) const { return (*pairs)[i].first; }
  Value value(size_t i) const { return (*pairs)[i].second; }
};

/// Keys alone: key i holds value `first_value + i`, so a dataset is loaded
/// in place with its positions as the payload.
struct SortedKeysView {
  std::span<const Key> keys;
  Value first_value = 0;
  size_t size() const { return keys.size(); }
  Key key(size_t i) const { return keys[i]; }
  Value value(size_t i) const { return first_value + static_cast<Value>(i); }
};

}  // namespace lsbench

#endif  // LSBENCH_INDEX_KV_INDEX_H_
