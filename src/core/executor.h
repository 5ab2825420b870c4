#ifndef LSBENCH_CORE_EXECUTOR_H_
#define LSBENCH_CORE_EXECUTOR_H_

#include <cstdint>
#include <optional>

#include "core/resilience.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sut/sut.h"
#include "util/annotate.h"
#include "workload/operation.h"

namespace lsbench {

/// How resilient execution classified one request unit: retries consumed
/// and the failure classification the event stream records. Per-element
/// data (ok, rows, status) stays in the caller's results array.
struct ExecOutcome {
  uint16_t retries = 0;
  bool failed = false;     ///< Operation ultimately failed (any cause).
  bool timed_out = false;  ///< Exceeded its per-op timeout budget.
  bool shed = false;       ///< Dropped unexecuted by the open breaker.
};

/// Stage 2 of the execution core: the timeout/retry/circuit-breaker policy
/// around one request unit's SUT call. One instance per worker — each
/// worker gets its own backoff jitter stream and breaker so fan-out never
/// serializes on resilience bookkeeping. Semantics are exactly the
/// monolithic driver's retry loop: deadline measured from the intended
/// arrival, breaker checked before every attempt, transient failures
/// retried with seeded backoff inside the deadline, open breaker shedding
/// operations unexecuted. With a fault plan, the worker's FaultLane draws
/// each attempt's faults before the attempt reaches the SUT.
class ResilientExecutor {
 public:
  struct Options {
    int64_t run_start_nanos = 0;
    /// Simulated service cost per attempted element (simulation mode only).
    int64_t virtual_service_nanos = 100000;
    /// Faults to inject before each attempt; null injects none. Must
    /// outlive the executor.
    const FaultPlan* faults = nullptr;
    /// Which worker's fault stream the executor draws (FaultLane).
    uint32_t worker = 0;
  };

  /// `sut` must outlive the executor. The executor has a circuit breaker
  /// exactly when `spec.breaker_enabled` is set, and a fault lane exactly
  /// when `options.faults` is set.
  ResilientExecutor(SystemUnderTest* sut, const ResilienceSpec& spec,
                    Pacer pacer, uint64_t backoff_seed, Options options);

  /// Runs one request unit through the resilience policy: a scalar op, or
  /// a whole batch op, calling the SUT's Execute or ExecuteBatch once per
  /// attempt. `arrival_rel_nanos` is the unit's intended start
  /// (run-relative) from which its deadline is measured. `results` must
  /// have room for OpResultCount(op) entries; it receives the last
  /// attempt's per-element results, or default (failed) results on a
  /// breaker shed.
  ///
  /// A batch is ONE request unit: one breaker check per attempt, one
  /// deadline measured from the shared intended arrival, and a transient
  /// failure retries the whole batch. An attempt is classified by its
  /// first non-OK element status (element "misses" — ok == false with an
  /// OK status — are data-level outcomes, not failures). In simulation
  /// mode each attempt advances the virtual clock by virtual_service_nanos
  /// per *element*, so simulated batch latency scales with batch size and
  /// a scalar op is simply a unit of one element.
  ///
  /// lsbench-deepcheck's walk from this root stops at the virtual SUT call,
  /// since SUT internals (B-tree node splits, learned-index retrains)
  /// legitimately allocate. The end-to-end allocation budget is pinned at
  /// runtime by tests/hotpath_alloc_test.cc.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  ExecOutcome Execute(const Operation& op, int64_t arrival_rel_nanos,
                      OpResult* results);

  /// Starts `phase`'s fault stream. Call before the phase's first unit.
  void BeginPhase(int phase) {
    if (faults_) faults_->BeginPhase(phase);
  }

  /// Breaker state for run-level accounting (null when disabled).
  const CircuitBreaker* breaker() const {
    return breaker_ ? &*breaker_ : nullptr;
  }

  /// The worker's fault lane for run-level accounting (null without faults).
  const FaultLane* faults() const { return faults_ ? &*faults_ : nullptr; }

  /// Arms the execute/retry observability hooks: per-attempt spans on
  /// `tracer`, Stage::kExecute / Stage::kBackoff on `profiler`, and
  /// attempt/retry/timeout/shed/failure counters from `registry`. Any
  /// argument may be null. Observing execution never perturbs it — no
  /// clock writes, no extra RNG draws.
  void BindObservability(Tracer* tracer, StageProfiler* profiler,
                         MetricsRegistry* registry);

 private:
  SystemUnderTest* sut_;
  ResilienceSpec spec_;
  Pacer pacer_;
  RetryBackoff backoff_;
  std::optional<CircuitBreaker> breaker_;
  Options options_;

  // Observability hooks (null = disabled). Counters are resolved once at
  // bind time so the retry loop never touches the registry lock.
  Tracer* tracer_ = nullptr;
  StageProfiler* profiler_ = nullptr;
  Counter* attempts_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* failures_ = nullptr;

  // Last: a fault-free run reads only its has-value flag.
  std::optional<FaultLane> faults_;
};

}  // namespace lsbench

#endif  // LSBENCH_CORE_EXECUTOR_H_
