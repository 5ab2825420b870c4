#ifndef LSBENCH_CORE_EXECUTOR_H_
#define LSBENCH_CORE_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <optional>

#include "core/resilience.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sut/sut.h"
#include "util/annotate.h"
#include "util/clock.h"
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

/// Exec policies: how one executor attempt reaches the SUT. The retry loop
/// is a template over this policy, so the driver can pick — once per run
/// — between generic virtual dispatch and a monomorphized engine with the
/// final SUT type baked in.

/// Generic engine: every attempt goes through the SystemUnderTest vtable.
/// Always correct; the driver uses it for any SUT whose exact type is not
/// in SelectEngine's list, such as a user-supplied SUT or decorator.
struct VirtualExec {
  SystemUnderTest* sut;
  OpResult Execute(const Operation& op) const { return sut->Execute(op); }
  void ExecuteBatch(const Operation& op, OpResult* results) const {
    sut->ExecuteBatch(op, results);
  }
};

/// Monomorphized engine: the final SUT type is a compile-time parameter and
/// the attempt calls are *qualified*, so they bind statically — zero virtual
/// calls per operation in the steady state, and the SUT's batch loop inlines
/// into the executor's. Only valid when the driver proved the exact runtime
/// type (dynamic_cast to a final class). A wrapper in SelectEngine's list,
/// such as SerializingSut, qualifies like any other listed type: the
/// engine binds the wrapper's own calls statically.
template <typename SutT>
struct MonoExec {
  SutT* sut;
  OpResult Execute(const Operation& op) const {
    return sut->SutT::Execute(op);
  }
  void ExecuteBatch(const Operation& op, OpResult* results) const {
    sut->SutT::ExecuteBatch(op, results);
  }
};

/// Simulated cost of shedding one unit while the circuit breaker is open
/// (simulation mode only). Fast-fail is cheap but not free, and advancing
/// virtual time lets the breaker's cooldown elapse in closed-loop phases.
inline constexpr int64_t kVirtualShedNanos = 1000;  // 1 us.

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
  /// a whole batch op. `arrival_rel_nanos` is the unit's intended start
  /// (run-relative) from which its deadline is measured. `results` must
  /// have room for OpResultCount(op) entries; it receives the last
  /// attempt's per-element results, or default (failed) results on a
  /// breaker shed. Equivalent to Execute(VirtualExec{sut}, ...).
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  ExecOutcome Execute(const Operation& op, int64_t arrival_rel_nanos,
                      OpResult* results);

  /// The retry loop itself, parameterized on the attempt dispatch policy.
  /// `exec` must target the same SUT this executor was constructed with
  /// (the breaker/backoff bookkeeping is per-SUT state).
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
  /// Not annotated itself: lsbench-deepcheck merges overloads by name, so
  /// the non-template Execute root already walks this loop, scalar and
  /// batch dispatch alike. The walk stops at the SUT boundary in both
  /// engines — virtual dispatch through VirtualExec, the statically bound
  /// call through MonoExec — since SUT internals (B-tree node splits,
  /// learned-index retrains) legitimately allocate. The end-to-end
  /// allocation budget is pinned at runtime by tests/hotpath_alloc_test.cc.
  template <typename Exec>
  LSBENCH_DETERMINISTIC ExecOutcome Execute(const Exec& exec,
                                            const Operation& op,
                                            int64_t arrival_rel_nanos,
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

// ---- Retry-loop template ----
// Defined in the header so each MonoExec instantiation compiles into a
// self-contained engine with the SUT's execute path inlined. The
// non-template Execute (executor.cc) instantiates the VirtualExec flavor.

template <typename Exec>
ExecOutcome ResilientExecutor::Execute(const Exec& exec, const Operation& op,
                                       int64_t arrival_rel_nanos,
                                       OpResult* results) {
  const Clock* clock = pacer_.clock();
  VirtualClock* vclock = pacer_.virtual_clock();
  const uint32_t count = OpResultCount(op);
  const bool batch = IsBatchOp(op.type);
  const int64_t deadline_rel =
      spec_.op_timeout_nanos > 0
          ? arrival_rel_nanos + spec_.op_timeout_nanos
          : std::numeric_limits<int64_t>::max();

  ExecOutcome out;
  for (;;) {
    if (breaker_ && !breaker_->AllowRequest(clock->NowNanos())) {
      // Open breaker: degraded mode sheds the whole unit unexecuted.
      out.shed = true;
      out.failed = true;
      for (uint32_t i = 0; i < count; ++i) results[i] = OpResult();
      if (shed_ != nullptr) shed_->Increment();
      if (vclock != nullptr) {
        vclock->AdvanceNanos(kVirtualShedNanos);
      }
      break;
    }
    {
      LSBENCH_TRACE_SPAN(tracer_, "execute");
      LSBENCH_PROFILE_STAGE(profiler_, Stage::kExecute);
      if (attempts_ != nullptr) attempts_->Increment();
      if (faults_ && faults_->Inject(op, results)) {
        // Injected failure: the attempt never reaches the SUT.
      } else if (batch) {
        exec.ExecuteBatch(op, results);
      } else {
        results[0] = exec.Execute(op);
      }
      if (vclock != nullptr) {
        vclock->AdvanceNanos(options_.virtual_service_nanos *
                             static_cast<int64_t>(count));
      }
    }
    // The first non-OK element status classifies the attempt.
    const Status* failure = nullptr;
    for (uint32_t i = 0; i < count && failure == nullptr; ++i) {
      if (!results[i].status.ok()) failure = &results[i].status;
    }
    const int64_t now_rel = clock->NowNanos() - options_.run_start_nanos;
    const bool past_deadline = now_rel > deadline_rel;
    if (failure == nullptr && !past_deadline) {
      if (breaker_) breaker_->RecordSuccess(clock->NowNanos());
      break;
    }
    // Failure: a SUT error, a blown latency budget, or both.
    if (breaker_) breaker_->RecordFailure(clock->NowNanos());
    if (past_deadline) {
      // The deadline is spent; retrying cannot deliver in time.
      out.timed_out = true;
      out.failed = true;
      if (timeouts_ != nullptr) timeouts_->Increment();
      break;
    }
    if (failure->IsTransient() && out.retries < spec_.max_retries) {
      ++out.retries;
      if (retries_ != nullptr) retries_->Increment();
      LSBENCH_TRACE_SPAN(tracer_, "backoff");
      LSBENCH_PROFILE_STAGE(profiler_, Stage::kBackoff);
      pacer_.PaceUntil(clock->NowNanos() +
                       backoff_.NextDelayNanos(out.retries));
      continue;
    }
    out.failed = true;
    break;
  }
  if (out.failed && failures_ != nullptr) failures_->Increment();
  return out;
}

}  // namespace lsbench

#endif  // LSBENCH_CORE_EXECUTOR_H_
