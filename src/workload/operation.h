#ifndef LSBENCH_WORKLOAD_OPERATION_H_
#define LSBENCH_WORKLOAD_OPERATION_H_

#include <cstdint>
#include <string>

#include "util/key_value.h"

namespace lsbench {

/// The operation vocabulary of LSBench workloads: YCSB-style point/write ops
/// plus two range flavors that exercise scans and analytic aggregation
/// (where cardinality estimation and access-path choice matter). Stored in
/// one byte: every recorded OpEvent carries one.
enum class OpType : uint8_t {
  kGet = 0,
  kScan,        ///< Ordered scan of `scan_length` entries from `key`.
  kInsert,      ///< Insert a (usually new) key.
  kUpdate,      ///< Overwrite an existing key.
  kDelete,      ///< Remove an existing key.
  kRangeCount,  ///< Analytic: count keys in [key, range_end].
  kBatchGet,    ///< Multi-get of `batch_size` keys (UCSB-style batch class).
  kBatchPut,    ///< Multi-put of `batch_size` key/value pairs.
};

constexpr int kNumOpTypes = 8;

std::string OpTypeToString(OpType type);

/// True for the multi-key op classes that carry a batch payload.
constexpr bool IsBatchOp(OpType type) {
  return type == OpType::kBatchGet || type == OpType::kBatchPut;
}

/// One generated operation. Batch op classes (kBatchGet / kBatchPut) carry
/// their payload as pointers into the generator's pre-sized batch arena;
/// the pointed-to slots stay valid until the generator recycles the slot,
/// which is sized to outlive the admission queue plus in-flight draws (see
/// OperationGenerator). Scalar ops leave the batch fields null/zero.
struct Operation {
  OpType type = OpType::kGet;
  Key key = 0;
  Key range_end = 0;      ///< For kRangeCount.
  uint32_t scan_length = 0;  ///< For kScan.
  Value value = 0;        ///< For kInsert / kUpdate.
  const Key* batch_keys = nullptr;      ///< For kBatchGet / kBatchPut.
  const Value* batch_values = nullptr;  ///< For kBatchPut.
  uint32_t batch_size = 0;              ///< Element count of the batch.
};

/// Number of per-key results an op produces: batch ops expand to one result
/// (and one recorded event) per batch element, scalar ops to one.
constexpr uint32_t OpResultCount(const Operation& op) {
  return IsBatchOp(op.type) && op.batch_size > 0 ? op.batch_size : 1;
}

/// The i-th scalar view of a batch op: kBatchGet elements behave as kGet,
/// kBatchPut elements as kUpdate (upsert). Used by the default scalar-loop
/// ExecuteBatch fallback and by oracles that replay batches element-wise.
inline Operation ScalarViewOf(const Operation& op, uint32_t i) {
  Operation scalar;
  scalar.type = op.type == OpType::kBatchPut ? OpType::kUpdate : OpType::kGet;
  scalar.key = op.batch_keys[i];
  if (op.type == OpType::kBatchPut) scalar.value = op.batch_values[i];
  return scalar;
}

/// Relative frequencies of each operation type. Need not sum to 1; they are
/// normalized. The classic YCSB mixes are provided as factories.
struct OperationMix {
  double get = 1.0;
  double scan = 0.0;
  double insert = 0.0;
  double update = 0.0;
  double del = 0.0;
  double range_count = 0.0;
  double batch_get = 0.0;
  double batch_put = 0.0;

  double Total() const {
    return get + scan + insert + update + del + range_count + batch_get +
           batch_put;
  }

  /// 95% reads / 5% updates (YCSB-B-like).
  static OperationMix ReadMostly();
  /// 50/50 reads and updates (YCSB-A-like).
  static OperationMix ReadWrite();
  /// 95% scans / 5% inserts (YCSB-E-like).
  static OperationMix ScanHeavy();
  /// Insert-dominated ingest with occasional reads.
  static OperationMix InsertHeavy();
  /// Range-count analytics with light writes.
  static OperationMix Analytic();
};

}  // namespace lsbench

#endif  // LSBENCH_WORKLOAD_OPERATION_H_
