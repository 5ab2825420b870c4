#ifndef LSBENCH_WORKLOAD_GENERATOR_H_
#define LSBENCH_WORKLOAD_GENERATOR_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "workload/operation.h"
#include "workload/spec.h"

namespace lsbench {

/// Produces the operation stream for one phase: operation types follow the
/// phase mix, target records follow the access distribution, inserts create
/// fresh keys near the phase's data distribution (so the stored data drifts
/// toward the phase's distribution — the paper's "changing data
/// distributions"). Deterministic given the seed.
class OperationGenerator {
 public:
  /// `dataset` must outlive the generator. `batch_arena_slots` sizes the
  /// ring of batch-payload slots handed out by Next(): a kBatchGet/kBatchPut
  /// op's key/value pointers stay valid until `batch_arena_slots` further
  /// batch draws have occurred. Callers that buffer draws (the admission
  /// queue) must pass their buffering depth + in-flight headroom.
  OperationGenerator(const Dataset* dataset, const PhaseSpec& spec,
                     uint64_t seed, size_t batch_arena_slots = 4);

  OperationGenerator(const OperationGenerator&) = delete;
  OperationGenerator& operator=(const OperationGenerator&) = delete;
  OperationGenerator(OperationGenerator&&) = default;

  /// The next operation in the stream.
  Operation Next();

  const PhaseSpec& spec() const { return spec_; }
  const Dataset* dataset() const { return dataset_; }
  uint64_t generated_count() const { return generated_; }
  size_t inserted_key_count() const { return inserted_count_; }

 private:
  OpType PickType();
  Key PickExistingKey();
  Key MakeFreshKey();

  /// Fills one batch's keys: population hoisted once, ranks drawn through a
  /// single AccessDistribution::FillRanks call (one virtual dispatch per
  /// batch, not per element), then mapped to keys. Draw-for-draw identical
  /// to spec_.batch_size PickExistingKey calls.
  void FillBatchKeys(Key* keys);

  /// Claims the next ring slot and returns its key array; when `values` is
  /// non-null also hands out the parallel value array (kBatchPut). Pure
  /// index arithmetic over the pre-sized ring — never allocates.
  Key* NextBatchSlot(Value** values);

  /// Appends to the inserted-key arena; allocation-free while the slots
  /// sized from the phase's expected insert count hold out.
  void AppendInsertedKey(Key key) {
    if (inserted_count_ < inserted_keys_.size()) {
      inserted_keys_[inserted_count_++] = key;
    } else {
      AppendInsertedKeySlow(key);
    }
  }

  /// Cold path: insert draws exceeded the arena sizing. Grows (allocates);
  /// out of line so the hot-alloc frontier is this function, not Next.
  void AppendInsertedKeySlow(Key key);

  const Dataset* dataset_;
  PhaseSpec spec_;
  Rng rng_;
  std::unique_ptr<AccessDistribution> access_;
  double cumulative_mix_[kNumOpTypes];
  /// Arena: slots [0, inserted_count_) hold keys created by kInsert ops;
  /// the rest is headroom sized in the constructor.
  std::vector<Key> inserted_keys_;
  size_t inserted_count_ = 0;
  /// Batch-payload ring: `batch_arena_slots` slots of `spec.batch_size`
  /// keys (and values, when kBatchPut is in the mix), recycled round-robin.
  /// Sized once in the constructor; Next() never allocates for batches.
  std::vector<Key> batch_keys_;
  std::vector<Value> batch_values_;
  /// Scratch for FillBatchKeys' rank draws (one batch wide; reused).
  std::vector<uint64_t> batch_ranks_;
  size_t batch_arena_slots_ = 0;
  size_t batch_slot_ = 0;
  uint64_t generated_ = 0;
  uint64_t value_counter_ = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_WORKLOAD_GENERATOR_H_
