#include "sut/concurrent_kv.h"

#include <algorithm>

#include "util/assert.h"

namespace lsbench {

namespace {
constexpr size_t kScanChunk = 1024;
}  // namespace

PartitionedKvSystem::PartitionedKvSystem(size_t partitions, int fanout)
    : fanout_(fanout) {
  LSBENCH_ASSERT(partitions > 0);
  shards_.reserve(partitions);
  for (size_t i = 0; i < partitions; ++i) {
    shards_.push_back(std::make_unique<Shard>(fanout_));
  }
  shard_lower_.assign(partitions, 0);
}

std::string PartitionedKvSystem::name() const {
  return "partitioned_kv_system(p=" + std::to_string(shards_.size()) + ")";
}

size_t PartitionedKvSystem::ShardFor(Key key) const {
  // Last shard whose lower bound is <= key. shard_lower_[0] == 0, so the
  // iterator is never begin().
  const auto it =
      std::upper_bound(shard_lower_.begin(), shard_lower_.end(), key);
  return static_cast<size_t>(it - shard_lower_.begin()) - 1;
}

template <typename View, typename LoadShardFn>
void PartitionedKvSystem::LoadShards(const View& view,
                                     LoadShardFn load_shard) {
  const size_t partitions = shards_.size();
  const size_t n = view.size();
  // Equi-count split keys: shard i owns keys in
  // [shard_lower_[i], shard_lower_[i + 1]).
  for (size_t i = 0; i < partitions; ++i) {
    const size_t begin = i * n / partitions;
    const size_t end = (i + 1) * n / partitions;
    shard_lower_[i] = i == 0 || n == 0 ? 0 : view.key(begin);
    Shard& shard = *shards_[i];
    MutexLock lock(shard.mu);
    load_shard(&shard.tree, begin, end);
  }
}

Status PartitionedKvSystem::Load(const std::vector<KeyValue>& sorted_pairs) {
  std::vector<KeyValue> slice;
  LoadShards(SortedPairsView{&sorted_pairs},
             [&](BTree* tree, size_t begin, size_t end) {
               slice.assign(
                   sorted_pairs.begin() + static_cast<ptrdiff_t>(begin),
                   sorted_pairs.begin() + static_cast<ptrdiff_t>(end));
               tree->BulkLoad(slice);
             });
  return Status::OK();
}

Status PartitionedKvSystem::LoadKeys(std::span<const Key> sorted_keys) {
  LoadShards(SortedKeysView{sorted_keys},
             [&](BTree* tree, size_t begin, size_t end) {
               tree->BulkLoadKeys(sorted_keys.subspan(begin, end - begin),
                                  static_cast<Value>(begin));
             });
  return Status::OK();
}

OpResult PartitionedKvSystem::Execute(const Operation& op) {
  OpResult result;
  switch (op.type) {
    case OpType::kGet: {
      Shard& shard = *shards_[ShardFor(op.key)];
      MutexLock lock(shard.mu);
      const auto v = shard.tree.Get(op.key);
      result.ok = v.has_value();
      result.rows = result.ok ? 1 : 0;
      break;
    }
    case OpType::kInsert:
    case OpType::kUpdate: {
      Shard& shard = *shards_[ShardFor(op.key)];
      MutexLock lock(shard.mu);
      shard.tree.Insert(op.key, op.value);
      result.ok = true;
      result.rows = 1;
      break;
    }
    case OpType::kDelete: {
      Shard& shard = *shards_[ShardFor(op.key)];
      MutexLock lock(shard.mu);
      result.ok = shard.tree.Erase(op.key);
      result.rows = result.ok ? 1 : 0;
      break;
    }
    case OpType::kScan: {
      // Walk consecutive partitions, locking one at a time, until the scan
      // limit is met or the key space is exhausted.
      std::vector<KeyValue> out;
      out.reserve(op.scan_length);
      Key cursor = op.key;
      for (size_t i = ShardFor(op.key);
           i < shards_.size() && out.size() < op.scan_length; ++i) {
        Shard& shard = *shards_[i];
        MutexLock lock(shard.mu);
        shard.tree.Scan(cursor, op.scan_length - out.size(), &out);
      }
      result.ok = true;
      result.rows = out.size();
      break;
    }
    case OpType::kRangeCount: {
      uint64_t count = 0;
      std::vector<KeyValue> chunk;
      bool done = false;
      for (size_t i = ShardFor(op.key); i < shards_.size() && !done; ++i) {
        Shard& shard = *shards_[i];
        MutexLock lock(shard.mu);
        Key cursor = std::max(op.key, shard_lower_[i]);
        while (!done) {
          chunk.clear();
          const size_t got = shard.tree.Scan(cursor, kScanChunk, &chunk);
          if (got == 0) break;
          for (const auto& [k, v] : chunk) {
            (void)v;
            if (k > op.range_end) {
              done = true;
              break;
            }
            ++count;
          }
          if (done || got < kScanChunk) break;
          const Key last = chunk.back().first;
          if (last == ~Key{0}) break;
          cursor = last + 1;
        }
      }
      result.ok = true;
      result.rows = count;
      break;
    }
    case OpType::kBatchGet:
    case OpType::kBatchPut:
      LSBENCH_ASSERT_MSG(false, "batch ops go to ExecuteBatch, not Execute");
      break;
  }
  return result;
}

void PartitionedKvSystem::ExecuteBatch(const Operation& op,
                                       OpResult* results) {
  const bool put = op.type == OpType::kBatchPut;
  for (size_t s = 0; s < shards_.size(); ++s) {
    // Cheap unlocked membership scan first (routing is immutable after
    // a load), so shards no batch element touches are never locked.
    bool any = false;
    for (uint32_t i = 0; i < op.batch_size; ++i) {
      if (ShardFor(op.batch_keys[i]) == s) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    for (uint32_t i = 0; i < op.batch_size; ++i) {
      if (ShardFor(op.batch_keys[i]) != s) continue;
      OpResult& r = results[i];
      r.status = Status::OK();
      if (put) {
        shard.tree.Insert(op.batch_keys[i], op.batch_values[i]);
        r.ok = true;
        r.rows = 1;
      } else {
        r.ok = shard.tree.Get(op.batch_keys[i]).has_value();
        r.rows = r.ok ? 1 : 0;
      }
    }
  }
}

SutStats PartitionedKvSystem::GetStats() const {
  SutStats stats;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    stats.memory_bytes += shard.tree.MemoryBytes();
  }
  return stats;
}

}  // namespace lsbench
