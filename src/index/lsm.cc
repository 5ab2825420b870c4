#include "index/lsm.h"

#include <algorithm>

#include "util/assert.h"

namespace lsbench {

LsmTree::LsmTree(LsmOptions options) : options_(options) {
  LSBENCH_ASSERT(options_.memtable_limit >= 16);
  LSBENCH_ASSERT(options_.level_size_ratio >= 2);
}

size_t LsmTree::LevelCapacity(size_t level) const {
  size_t capacity = options_.memtable_limit;
  for (size_t i = 0; i <= level; ++i) {
    capacity *= options_.level_size_ratio;
  }
  return capacity;
}

std::unique_ptr<BloomFilter> LsmTree::BuildBloom(
    const std::vector<Entry>& entries, int bits_per_key) {
  auto bloom = std::make_unique<BloomFilter>(entries.size(), bits_per_key);
  for (const Entry& e : entries) bloom->Add(e.key);
  return bloom;
}

void LsmTree::FinalizeRun(Run* run) {
  run->bloom = BuildBloom(run->entries, options_.bloom_bits_per_key);
  if (options_.learned_runs && !run->entries.empty()) {
    // Fit the model over the run's keys (gathered once; runs are immutable
    // until their next compaction).
    std::vector<Key> keys;
    keys.reserve(run->entries.size());
    for (const Entry& e : run->entries) keys.push_back(e.key);
    run->model = std::make_unique<SegmentModel>(options_.learned_epsilon);
    run->model->Build(keys.data(), keys.size());
  } else {
    run->model.reset();
  }
}

size_t LsmTree::ModelSegments() const {
  size_t segments = 0;
  for (const Run& run : levels_) {
    if (run.model != nullptr) segments += run.model->segment_count();
  }
  return segments;
}

std::optional<Value> LsmTree::GetInternal(Key key) const {
  const auto mit = memtable_.find(key);
  if (mit != memtable_.end()) {
    if (mit->second.tombstone) return std::nullopt;
    return mit->second.value;
  }
  for (const Run& run : levels_) {
    if (run.entries.empty()) continue;
    if (run.bloom != nullptr && !run.bloom->MayContain(key)) {
      ++bloom_negatives_;
      continue;
    }
    auto begin = run.entries.begin();
    auto end = run.entries.end();
    if (run.model != nullptr) {
      const auto [lo, hi] = run.model->WindowFor(key);
      begin = run.entries.begin() + lo;
      end = run.entries.begin() + hi;
    }
    const auto it = std::lower_bound(
        begin, end, key, [](const Entry& e, Key k) { return e.key < k; });
    if (it != end && it->key == key) {
      if (it->tombstone) return std::nullopt;
      return it->value;
    }
  }
  return std::nullopt;
}

std::optional<Value> LsmTree::Get(Key key) const { return GetInternal(key); }

bool LsmTree::Insert(Key key, Value value) {
  // Exact size() bookkeeping requires an existence probe per write; a
  // production engine would keep an approximate count instead, but the
  // benchmark contract (KvIndex::size) is exact.
  const bool existed = GetInternal(key).has_value();
  memtable_[key] = MemEntry{value, false};
  if (!existed) ++live_count_;
  if (memtable_.size() >= options_.memtable_limit) FlushMemtable();
  return !existed;
}

bool LsmTree::Erase(Key key) {
  if (!GetInternal(key).has_value()) return false;
  memtable_[key] = MemEntry{0, true};
  --live_count_;
  if (memtable_.size() >= options_.memtable_limit) FlushMemtable();
  return true;
}

void LsmTree::FlushMemtable() {
  std::vector<Entry> entries;
  entries.reserve(memtable_.size());
  for (const auto& [key, me] : memtable_) {
    entries.push_back(Entry{key, me.value, me.tombstone});
  }
  memtable_.clear();
  MergeIntoLevel(std::move(entries), 0);
}

void LsmTree::MergeIntoLevel(std::vector<Entry> upper, size_t level) {
  while (true) {
    if (level >= levels_.size()) levels_.emplace_back();
    bool deeper_data = false;
    for (size_t l = level + 1; l < levels_.size(); ++l) {
      if (!levels_[l].entries.empty()) {
        deeper_data = true;
        break;
      }
    }
    const std::vector<Entry>& older = levels_[level].entries;
    std::vector<Entry> merged;
    merged.reserve(upper.size() + older.size());
    size_t i = 0, j = 0;
    const bool drop_tombstones = !deeper_data;
    while (i < upper.size() || j < older.size()) {
      const Entry* pick;
      if (j >= older.size() ||
          (i < upper.size() && upper[i].key <= older[j].key)) {
        pick = &upper[i];
        if (j < older.size() && older[j].key == upper[i].key) {
          ++j;  // Shadowed by the newer entry.
        }
        ++i;
      } else {
        pick = &older[j];
        ++j;
      }
      if (drop_tombstones && pick->tombstone) continue;
      merged.push_back(*pick);
    }
    ++compaction_count_;
    compaction_work_ += merged.size();

    if (merged.size() <= LevelCapacity(level)) {
      levels_[level].entries = std::move(merged);
      FinalizeRun(&levels_[level]);
      return;
    }
    // Overflow: this level empties and everything moves down one level.
    levels_[level].entries.clear();
    levels_[level].bloom.reset();
    levels_[level].model.reset();
    upper = std::move(merged);
    ++level;
  }
}

size_t LsmTree::Scan(Key from, size_t limit,
                     std::vector<KeyValue>* out) const {
  // K-way merge over the memtable and every level, newest source wins.
  auto mem_it = memtable_.lower_bound(from);
  std::vector<size_t> cursors(levels_.size());
  for (size_t l = 0; l < levels_.size(); ++l) {
    const auto& entries = levels_[l].entries;
    cursors[l] = std::lower_bound(entries.begin(), entries.end(), from,
                                  [](const Entry& e, Key k) {
                                    return e.key < k;
                                  }) -
                 entries.begin();
  }

  size_t appended = 0;
  while (appended < limit) {
    // Find the smallest next key across all sources.
    bool have = false;
    Key next_key = 0;
    if (mem_it != memtable_.end()) {
      next_key = mem_it->first;
      have = true;
    }
    for (size_t l = 0; l < levels_.size(); ++l) {
      if (cursors[l] >= levels_[l].entries.size()) continue;
      const Key k = levels_[l].entries[cursors[l]].key;
      if (!have || k < next_key) {
        next_key = k;
        have = true;
      }
    }
    if (!have) break;

    // Resolve the newest version of next_key and advance all sources past it.
    bool resolved = false;
    bool tombstone = false;
    Value value = 0;
    if (mem_it != memtable_.end() && mem_it->first == next_key) {
      resolved = true;
      tombstone = mem_it->second.tombstone;
      value = mem_it->second.value;
      ++mem_it;
    }
    for (size_t l = 0; l < levels_.size(); ++l) {
      if (cursors[l] >= levels_[l].entries.size()) continue;
      const Entry& e = levels_[l].entries[cursors[l]];
      if (e.key != next_key) continue;
      if (!resolved) {
        resolved = true;
        tombstone = e.tombstone;
        value = e.value;
      }
      ++cursors[l];
    }
    if (resolved && !tombstone) {
      out->emplace_back(next_key, value);
      ++appended;
    }
  }
  return appended;
}

size_t LsmTree::MemoryBytes() const {
  size_t bytes = memtable_.size() *
                 (sizeof(Key) + sizeof(MemEntry) + 4 * sizeof(void*));
  for (const Run& run : levels_) {
    bytes += run.entries.size() * sizeof(Entry);
    if (run.bloom != nullptr) bytes += run.bloom->MemoryBytes();
    if (run.model != nullptr) bytes += run.model->MemoryBytes();
  }
  return bytes;
}

template <typename View>
void LsmTree::BulkLoadFrom(const View& view) {
  const size_t n = view.size();
  memtable_.clear();
  levels_.clear();
  live_count_ = n;
  compaction_count_ = 0;
  compaction_work_ = 0;
  bloom_negatives_ = 0;
  if (n == 0) return;
  std::vector<Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Key k = view.key(i);
    LSBENCH_ASSERT_MSG(entries.empty() || entries.back().key < k,
                       "BulkLoad requires strictly ascending keys");
    entries.push_back(Entry{k, view.value(i), false});
  }
  // Place the whole image directly at the shallowest level that fits.
  size_t level = 0;
  while (LevelCapacity(level) < entries.size()) ++level;
  levels_.resize(level + 1);
  levels_[level].entries = std::move(entries);
  FinalizeRun(&levels_[level]);
}

void LsmTree::BulkLoad(const std::vector<KeyValue>& sorted_pairs) {
  BulkLoadFrom(SortedPairsView{&sorted_pairs});
}

void LsmTree::BulkLoadKeys(std::span<const Key> sorted_keys,
                          Value first_value) {
  BulkLoadFrom(SortedKeysView{sorted_keys, first_value});
}

void LsmTree::CheckInvariants() const {
  for (size_t l = 0; l < levels_.size(); ++l) {
    const auto& entries = levels_[l].entries;
    LSBENCH_ASSERT_MSG(entries.size() <= LevelCapacity(l),
                       "level within capacity");
    for (size_t i = 1; i < entries.size(); ++i) {
      LSBENCH_ASSERT(entries[i - 1].key < entries[i].key);
    }
  }
  // Full scan recovers exactly live_count_ live entries, sorted.
  std::vector<KeyValue> all;
  Scan(0, live_count_ + memtable_.size() + 16, &all);
  LSBENCH_ASSERT_MSG(all.size() == live_count_, "live count bookkeeping");
  for (size_t i = 1; i < all.size(); ++i) {
    LSBENCH_ASSERT(all[i - 1].first < all[i].first);
  }
}

}  // namespace lsbench
