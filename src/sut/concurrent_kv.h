#ifndef LSBENCH_SUT_CONCURRENT_KV_H_
#define LSBENCH_SUT_CONCURRENT_KV_H_

#include <memory>
#include <string>
#include <vector>

#include "index/btree.h"
#include "sut/sut.h"
#include "util/annotate.h"
#include "util/sync.h"

namespace lsbench {

/// A natively thread-safe SUT: the key domain is range-partitioned across
/// `partitions` B+-trees, each guarded by its own mutex. Point operations
/// lock exactly one partition; scans and range counts walk consecutive
/// partitions locking one at a time. Split keys are chosen equi-count at
/// Load so partitions start balanced.
///
/// This is the scaling reference for the multi-worker driver: with N
/// workers touching mostly distinct partitions, throughput grows with N,
/// whereas a serial SUT behind SerializingSut stays flat. `lsbench_cli
/// --sut=partitioned` runs it, and tools/ci/ledger.py gates on its rate at
/// 4 workers over the serialized B-tree's (specs/bench/scaling.lsb). It
/// deliberately skips the estimator/cost-model substrate — its job is
/// measuring harness fan-out, not optimizer quality.
class PartitionedKvSystem final : public SystemUnderTest {
 public:
  explicit PartitionedKvSystem(size_t partitions = 16, int fanout = 64);

  std::string name() const override;
  SutConcurrency concurrency() const override {
    return SutConcurrency::kThreadSafe;
  }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override;
  LSBENCH_DETERMINISTIC
  OpResult Execute(const Operation& op) override;
  /// Partition-grouped fan-out: walks the shards in order and serves every
  /// batch element owned by a shard under one lock acquisition, so a batch
  /// locks each touched partition exactly once instead of once per element.
  LSBENCH_DETERMINISTIC
  void ExecuteBatch(const Operation& op, OpResult* results) override;
  SutStats GetStats() const override;

  size_t partition_count() const { return shards_.size(); }

 private:
  struct Shard {
    Mutex mu;
    BTree tree LSBENCH_GUARDED_BY(mu);
    explicit Shard(int fanout) : tree(fanout) {}
  };

  /// Index of the partition owning `key`: the last shard whose lower
  /// bound is <= key.
  size_t ShardFor(Key key) const;

  int fanout_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// shard_lower_[i] is the smallest key routed to shard i
  /// (shard_lower_[0] == 0). Immutable after Load.
  std::vector<Key> shard_lower_;
};

}  // namespace lsbench

#endif  // LSBENCH_SUT_CONCURRENT_KV_H_
