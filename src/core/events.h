#ifndef LSBENCH_CORE_EVENTS_H_
#define LSBENCH_CORE_EVENTS_H_

#include <cstdint>
#include <vector>

#include "workload/operation.h"

namespace lsbench {

/// One completed operation, as observed by the benchmark driver. Every
/// metric in LSBench is a pure function of a stream of these (plus phase
/// boundaries), which keeps the metric layer deterministic and testable
/// against synthetic streams.
///
/// Layout: the harness keeps one of these per element, so it is packed to
/// 56 bytes with no padding — the five 8-byte fields, then the three 4-byte
/// ones, `retries`, the one-byte `type`, and the six flags as one-bit
/// fields in the last byte. Every member reads and assigns as a plain
/// field, though a flag cannot be bound to a reference or have its address
/// taken.
struct OpEvent {
  int64_t timestamp_nanos = 0;  ///< Completion time (run-relative).
  /// Completion minus *intended arrival* — the response time. On open-loop
  /// runs this includes any queueing delay, which is what makes the metric
  /// coordinated-omission-correct: the intended arrival is recoverable as
  /// `timestamp_nanos - latency_nanos` even for operations that waited.
  int64_t latency_nanos = 0;
  /// When the operation actually started executing (run-relative). On
  /// closed-loop runs this equals the intended arrival; on open-loop runs
  /// `issue_nanos - (timestamp_nanos - latency_nanos)` is the queue wait
  /// and `timestamp_nanos - issue_nanos` the service time.
  int64_t issue_nanos = 0;
  uint64_t rows = 0;
  // Provenance (multi-worker runs): which worker shard produced the event
  // (`worker`) and its issue order within that shard (`seq`). Together with
  // the timestamp they define the deterministic merge order (timestamp,
  // worker, seq) — ties between workers never depend on thread scheduling.
  uint64_t seq = 0;
  int32_t phase = 0;
  /// Elements in the request unit this event belongs to: 1 for scalar ops,
  /// the batch size for every per-element event of a batch op. A batch is
  /// ONE request unit — its elements share one intended arrival, issue,
  /// completion, latency, and resilience outcome (coordinated-omission
  /// accounting charges the batch once) but carry their own data-level
  /// ok/rows and consecutive seqs. Effective per-op latency for batch rows
  /// is latency_nanos / batch. In a stream of request units (UnitShard)
  /// one event stands for the whole unit, and `batch` is its element
  /// count.
  uint32_t batch = 1;
  uint32_t worker = 0;
  uint16_t retries = 0;  ///< Retry attempts consumed by this operation.
  OpType type = OpType::kGet;
  bool ok : 1 = false;
  // Resilience outcome, with `retries` (all zero on healthy runs).
  bool failed : 1 = false;     ///< Operation ultimately failed (any cause).
  bool timed_out : 1 = false;  ///< Exceeded its per-op timeout budget.
  bool shed : 1 = false;  ///< Dropped unexecuted by the open circuit breaker.
  /// Dropped unexecuted by the admission queue's overload policy
  /// ([service] mode). Distinct from `shed` (breaker) — both imply failed.
  bool queue_shed : 1 = false;
  /// Scheduled by an open-loop arrival process (latency is a response
  /// time); false on closed-loop phases (latency is a service time).
  bool open_loop : 1 = false;
};
static_assert(sizeof(OpEvent) == 56, "OpEvent must stay packed");
static_assert(sizeof(OpType) == 1, "OpEvent stores OpType in one byte");

/// The `rows` value an ElementOutcome keeps for an element whose rows do
/// not fit in its 7 bits: that element's exact rows are the next entry of
/// its worker's wide rows (UnitShard::wide_rows), which hold them in record
/// order. Every shipped SUT reports 0 or 1 row per batch element, so a run
/// never takes the escape.
inline constexpr uint8_t kRowsEscape = 127;

/// One element's data-level outcome within an executed batch unit, as the
/// SUT returned it. EventSink keeps one per element beside the unit's
/// single event; expanding the unit gives element i `ok = !failed &&
/// outcome.ok` and its exact rows. Packed into one byte: `ok` in one bit
/// and `rows` in seven, where kRowsEscape stands for a row count kept
/// aside (build one with MakeOutcome).
struct ElementOutcome {
  bool ok : 1 = false;
  uint8_t rows : 7 = 0;
};
static_assert(sizeof(ElementOutcome) == 1, "ElementOutcome must stay packed");

/// The ElementOutcome of one element: `rows` from kRowsEscape up is stored
/// as kRowsEscape, and its exact value must be kept in the wide rows.
inline ElementOutcome MakeOutcome(bool ok, uint64_t rows) {
  ElementOutcome outcome;
  outcome.ok = ok;
  // The mask makes the 7-bit store provably exact.
  outcome.rows =
      static_cast<uint8_t>(rows < kRowsEscape ? rows : kRowsEscape) &
      kRowsEscape;
  return outcome;
}

/// Elements in a request unit recorded as one event (EventSink's shards):
/// its batch size, or 1 for a scalar op.
inline uint32_t UnitElements(const OpEvent& unit) {
  return unit.batch > 1 ? unit.batch : 1;
}

/// Whether a request unit keeps one ElementOutcome per element: an
/// executed unit of more than one element. A scalar unit keeps its own
/// ok/rows, and a queue-shed unit's elements all have ok = false and
/// rows = 0.
inline bool UnitHasOutcomes(const OpEvent& unit) {
  return unit.batch > 1 && !unit.queue_shed;
}

/// The deterministic merge order of events: by (timestamp, worker, seq).
/// A worker's shard is already in this order (its completion times never
/// decrease and its seqs count up); MergeEventShards keeps it.
inline bool MergeOrderLess(const OpEvent& a, const OpEvent& b) {
  if (a.timestamp_nanos != b.timestamp_nanos) {
    return a.timestamp_nanos < b.timestamp_nanos;
  }
  if (a.worker != b.worker) return a.worker < b.worker;
  return a.seq < b.seq;
}

/// When a phase ran, and whether it was out-of-sample.
struct PhaseBoundary {
  int32_t phase = 0;
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  bool holdout = false;
  uint64_t operations = 0;
};

/// Timing of a training invocation (offline or between phases).
struct TrainEvent {
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  uint64_t work_items = 0;
  bool ok = true;  ///< False when the training pass reported failure.

  double Seconds() const {
    return static_cast<double>(end_nanos - start_nanos) * 1e-9;
  }
};

using EventStream = std::vector<OpEvent>;

/// One worker's recorded request units (EventSink::TakeUnits): one event
/// per unit, whose `batch` is its element count and whose `seq` is its
/// first element's seq, the ElementOutcomes of the units that keep them
/// (UnitHasOutcomes), and the exact rows of the outcomes that escape
/// (kRowsEscape), each in record order.
struct UnitShard {
  EventStream units;
  std::vector<ElementOutcome> outcomes;
  std::vector<uint64_t> wide_rows;
};

}  // namespace lsbench

#endif  // LSBENCH_CORE_EVENTS_H_
