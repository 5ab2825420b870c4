#ifndef LSBENCH_INDEX_LSM_H_
#define LSBENCH_INDEX_LSM_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/bloom.h"
#include "index/kv_index.h"
#include "learned/segment_model.h"

namespace lsbench {

/// LSM-tree tuning knobs.
struct LsmOptions {
  /// Memtable flush threshold (entries).
  size_t memtable_limit = 4096;
  /// Level capacity ratio: level i holds up to memtable_limit * ratio^(i+1)
  /// entries before compacting into level i+1.
  size_t level_size_ratio = 10;
  int bloom_bits_per_key = 10;
  /// Bourbon-style learned runs: fit an epsilon-bounded position model per
  /// immutable run at (re)build time and answer point reads by searching
  /// only the model window instead of binary-searching the whole run.
  bool learned_runs = false;
  uint32_t learned_epsilon = 16;
};

/// In-memory log-structured merge tree: the write-optimized traditional
/// baseline (the RocksDB-shaped engine behind the workloads the paper cites
/// for real-world dynamism). A sorted memtable absorbs writes; flushes
/// produce immutable sorted runs; leveled compaction keeps one run per
/// level with geometric capacities; Bloom filters skip runs on point reads;
/// deletes are tombstones dropped at the bottom level.
class LsmTree final : public KvIndex {
 public:
  explicit LsmTree(LsmOptions options = {});

  std::string name() const override {
    return options_.learned_runs ? "lsm_learned" : "lsm";
  }
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

  // --- introspection for tests / stats ---
  size_t memtable_size() const { return memtable_.size(); }
  size_t level_count() const { return levels_.size(); }
  uint64_t compaction_count() const { return compaction_count_; }
  /// Total entries rewritten by flushes+compactions (write amplification
  /// numerator).
  uint64_t compaction_work() const { return compaction_work_; }
  uint64_t bloom_negative_count() const { return bloom_negatives_; }
  /// Total model segments across runs (0 unless learned_runs).
  size_t ModelSegments() const;

  /// Verifies run ordering, level capacities, tombstone-free bottom level,
  /// and live-count bookkeeping. Aborts on violation; for tests.
  void CheckInvariants() const;

 private:
  /// The one body of both bulk loads (View: index/kv_index.h).
  template <typename View>
  void BulkLoadFrom(const View& view);
  struct Entry {
    Key key;
    Value value;
    bool tombstone;
  };

  /// One immutable sorted run with its Bloom filter and (optionally) its
  /// learned position model.
  struct Run {
    std::vector<Entry> entries;  // Sorted by key, unique.
    std::unique_ptr<BloomFilter> bloom;
    std::unique_ptr<SegmentModel> model;  // Present iff learned_runs.
  };

  struct MemEntry {
    Value value;
    bool tombstone;
  };

  /// Looks `key` up through memtable + levels; nullopt if absent or
  /// tombstoned. Also reports whether the key is live (for size tracking).
  std::optional<Value> GetInternal(Key key) const;

  /// Flushes the memtable into level 0 and cascades compactions.
  void FlushMemtable();
  /// Merges `upper` entries into level `level` (creating it if needed),
  /// then cascades further if that level overflows.
  void MergeIntoLevel(std::vector<Entry> upper, size_t level);
  static std::unique_ptr<BloomFilter> BuildBloom(
      const std::vector<Entry>& entries, int bits_per_key);
  /// Rebuilds the run's auxiliary structures (Bloom filter + model).
  void FinalizeRun(Run* run);
  size_t LevelCapacity(size_t level) const;

  LsmOptions options_;
  std::map<Key, MemEntry> memtable_;
  std::vector<Run> levels_;  // levels_[0] is the newest/smallest.
  size_t live_count_ = 0;
  uint64_t compaction_count_ = 0;
  uint64_t compaction_work_ = 0;
  mutable uint64_t bloom_negatives_ = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_INDEX_LSM_H_
