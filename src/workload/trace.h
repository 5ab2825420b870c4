#ifndef LSBENCH_WORKLOAD_TRACE_H_
#define LSBENCH_WORKLOAD_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.h"
#include "util/status.h"
#include "workload/operation.h"

namespace lsbench {

struct Dataset;
struct PhaseSpec;

/// A recorded operation stream. Traces serve two benchmark needs the paper
/// raises: (1) *reproducibility* — the exact stream a SUT saw can be
/// archived next to the results and replayed against another system, and
/// (2) *benchmark-as-a-service* — a hidden hold-out trace can be shipped to
/// the evaluator without shipping its generator. A trace replays as a
/// phase of an ordinary run (`PhaseSpec::trace`).
///
/// Traces are scalar-only: a batch op's payload lives in its generator's
/// ring, which neither outlives the recording nor survives CSV.
class OperationTrace {
 public:
  void Append(const Operation& op) {
    LSBENCH_ASSERT_MSG(!IsBatchOp(op.type), "traces are scalar-only");
    operations_.push_back(op);
  }

  const std::vector<Operation>& operations() const { return operations_; }
  size_t size() const { return operations_.size(); }
  bool empty() const { return operations_.empty(); }
  void Clear() { operations_.clear(); }

  /// Per-type counts (indexed by OpType).
  std::vector<uint64_t> TypeHistogram() const;

  /// Serializes to CSV: type,key,range_end,scan_length,value.
  std::string ToCsv() const;

  /// Parses a trace produced by ToCsv (header required). Every error names
  /// its row (the header is row 0) and, where one applies, its field.
  static Result<OperationTrace> FromCsv(const std::string& csv);

 private:
  std::vector<Operation> operations_;
};

/// Records `count` operations of `phase` from a generator seeded with
/// `seed`. A phase whose mix draws batch ops is rejected (InvalidArgument):
/// traces are scalar-only.
Result<OperationTrace> RecordTrace(const Dataset& dataset,
                                   const PhaseSpec& phase, size_t count,
                                   uint64_t seed);

}  // namespace lsbench

#endif  // LSBENCH_WORKLOAD_TRACE_H_
