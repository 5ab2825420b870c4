#ifndef LSBENCH_SUT_SUT_H_
#define LSBENCH_SUT_SUT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/kv_index.h"
#include "obs/metrics_registry.h"
#include "util/status.h"
#include "workload/operation.h"

namespace lsbench {

/// Result of executing one operation. `status` reports whether the system
/// executed the operation at all (OK even for a miss); `ok` reports the
/// data-level outcome (found / applied). A SUT that cannot serve a request
/// (transient outage, internal error) returns a non-OK status and the
/// resilient driver decides whether to retry, time out, or degrade.
struct [[nodiscard]] OpResult {
  bool ok = false;        ///< Found / applied.
  uint64_t rows = 0;      ///< Rows returned (scan) or counted (range count).
  Status status;          ///< Execution outcome; defaults to OK.
};

/// What one training invocation did. The driver stamps wall time around the
/// call; `work_items` lets cost models reason about training effort
/// independent of machine speed. A failed training pass (e.g. under fault
/// injection) reports a non-OK status with trained == false.
struct [[nodiscard]] TrainReport {
  bool trained = false;
  uint64_t work_items = 0;  ///< Keys fitted / models built.
  Status status;            ///< Training outcome; defaults to OK.
};

/// Aggregate SUT-side statistics the benchmark reports alongside its own
/// measurements (§V-D3 training-cost accounting).
struct SutStats {
  size_t memory_bytes = 0;
  uint64_t offline_train_items = 0;
  double online_train_seconds = 0.0;  ///< Time spent retraining inside Execute.
  uint64_t retrain_events = 0;
  double model_error = 0.0;  ///< Implementation-defined model quality signal.
};

/// What the driver may assume about a SUT's thread-safety. The default is
/// the conservative contract every pre-existing SUT already satisfies.
enum class SutConcurrency {
  /// Execute may only be called from one thread at a time. Under a
  /// multi-worker run the driver serializes access with an external lock
  /// (see SerializingSut) — correctness is preserved, throughput won't
  /// scale.
  kSerial,
  /// Execute is safe to call concurrently from many threads. LoadKeys,
  /// Train, and OnPhaseStart are still invoked by a single thread at quiescent
  /// points (before execution / at phase barriers), but may be called from
  /// *different* threads across phases, so implementations must not rely
  /// on thread identity. See docs/ARCHITECTURE.md for the full contract.
  kThreadSafe,
};

/// The system-under-test interface. Deliberately minimal (the paper requires
/// the benchmark to avoid imposing architectural or runtime constraints):
/// load data, optionally train, execute operations, and receive phase-change
/// notifications. Everything else — what to learn, when to retrain, how to
/// adapt — is the SUT's business, which is precisely what the benchmark
/// measures.
class SystemUnderTest {
 public:
  virtual ~SystemUnderTest() = default;

  virtual std::string name() const = 0;

  /// Concurrency capability. Serial by default; thread-safe SUTs opt in to
  /// let the multi-worker driver fan Execute out without an external lock.
  virtual SutConcurrency concurrency() const { return SutConcurrency::kSerial; }

  /// Replaces the stored data with `sorted_pairs` (ascending unique keys).
  virtual Status Load(const std::vector<KeyValue>& sorted_pairs) = 0;

  /// Replaces the stored data with `sorted_keys` (ascending unique), key i
  /// holding value i: the dataset itself, with its payload implicit. The
  /// driver loads through this call. The default builds the (key, i) pairs
  /// and calls Load, so a SUT or decorator that implements Load alone
  /// still works; the bundled SUTs override it to load straight from the
  /// span, without that 16 B-per-key image. A SUT with an offline training
  /// step fits its models in Train, not here, so the driver's load time
  /// holds no training and a SUT loaded but never trained serves
  /// untrained.
  virtual Status LoadKeys(std::span<const Key> sorted_keys) {
    std::vector<KeyValue> pairs;
    pairs.reserve(sorted_keys.size());
    for (size_t i = 0; i < sorted_keys.size(); ++i) {
      pairs.emplace_back(sorted_keys[i], static_cast<Value>(i));
    }
    return Load(pairs);
  }

  /// Offline training pass over the currently loaded data: the one place
  /// a learned SUT fits its models. Traditional systems return
  /// trained=false. The driver times this call and charges it to the
  /// training budget, and calls it once after the load only when the spec
  /// sets offline_training; it is never invoked for hold-out phases.
  virtual TrainReport Train() { return {}; }

  /// Executes one scalar operation synchronously. Each op class has one
  /// entry: the driver sends scalar ops here and batch ops (kBatchGet /
  /// kBatchPut) to ExecuteBatch, never a batch op here. The bundled SUTs
  /// abort if one arrives.
  virtual OpResult Execute(const Operation& op) = 0;

  /// Executes one batch op (kBatchGet or kBatchPut; never a scalar op),
  /// writing one OpResult per batch element into `results` (which has
  /// room for `op.batch_size` entries). The default unrolls the batch into
  /// scalar Execute calls on the per-element views (kBatchGet -> kGet,
  /// kBatchPut -> kUpdate), so a SUT that implements Execute alone
  /// supports batches; native overrides (B-tree, learned, partitioned)
  /// amortize per-op costs instead. Wrappers (serializing / observability)
  /// must forward this call without unbatching, so a batch stays one
  /// request unit for locking and fault accounting.
  virtual void ExecuteBatch(const Operation& op, OpResult* results) {
    for (uint32_t i = 0; i < op.batch_size; ++i) {
      results[i] = Execute(ScalarViewOf(op, i));
    }
  }

  /// Notification that the benchmark switched phases. `holdout` phases are
  /// out-of-sample: a well-behaved SUT may adapt online but gets no
  /// offline training pass.
  virtual void OnPhaseStart(int phase_index, bool holdout) {
    (void)phase_index;
    (void)holdout;
  }

  virtual SutStats GetStats() const = 0;

  /// Offers the SUT a metrics registry to publish internal instruments
  /// into (retrain counters, model-rebuild latency histograms, ...). Called
  /// once per run, before LoadKeys, only when metrics export is enabled.
  /// Default: the SUT publishes nothing. `registry` outlives the run;
  /// wrapper SUTs must forward the call to the system they wrap.
  virtual void BindObservability(MetricsRegistry* registry) {
    (void)registry;
  }
};

}  // namespace lsbench

#endif  // LSBENCH_SUT_SUT_H_
