#ifndef LSBENCH_CORE_RESILIENCE_H_
#define LSBENCH_CORE_RESILIENCE_H_

#include <cstdint>
#include <vector>

#include "obs/metrics_registry.h"
#include "sut/fault_plan.h"
#include "sut/sut.h"
#include "util/annotate.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/sync.h"
#include "workload/operation.h"

namespace lsbench {

/// Advances one worker's notion of time to an absolute instant: jumps the
/// VirtualClock in simulation mode, hybrid sleep-then-spins on the real
/// clock otherwise (sub-microsecond pacing without burning a core — see
/// SleepSpinUntil).
class Pacer {
 public:
  /// `clock` must be non-null; `virtual_clock`, when non-null, must be the
  /// same object as `clock` (simulation mode).
  Pacer(const Clock* clock, VirtualClock* virtual_clock)
      : clock_(clock), virtual_clock_(virtual_clock) {}

  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void PaceUntil(int64_t target_abs_nanos) const {
    if (virtual_clock_ != nullptr) {
      if (virtual_clock_->NowNanos() < target_abs_nanos) {
        virtual_clock_->SetNanos(target_abs_nanos);
      }
      return;
    }
    SleepSpinUntil(*clock_, target_abs_nanos);
  }

  const Clock* clock() const { return clock_; }
  VirtualClock* virtual_clock() const { return virtual_clock_; }

 private:
  const Clock* clock_;
  VirtualClock* virtual_clock_;
};

/// How the driver responds to SUT failures: per-operation timeout budgets,
/// retry with exponential backoff (seeded jitter) for transient codes, and
/// a circuit breaker that sheds load in a degraded mode while the error
/// rate is above threshold. All defaults leave resilience off so existing
/// specs behave exactly as before.
struct ResilienceSpec {
  /// Per-operation latency budget measured from the intended arrival; an
  /// operation completing past its deadline counts as a timeout failure
  /// (retries share the same budget). 0 disables timeouts.
  int64_t op_timeout_nanos = 0;

  /// Retries for transient failures (kTimeout/kUnavailable/
  /// kResourceExhausted). 0 disables retries.
  uint32_t max_retries = 0;
  int64_t backoff_initial_nanos = 1000000;  // 1 ms.
  double backoff_multiplier = 2.0;
  int64_t backoff_max_nanos = 1000000000;  // 1 s cap.
  /// Jitter fraction in [0, 1): each delay is scaled by a seeded uniform
  /// factor in [1 - jitter, 1 + jitter].
  double backoff_jitter = 0.0;

  /// Circuit breaker: opens when the failure rate over the last
  /// `breaker_window_ops` outcomes reaches `breaker_failure_threshold`;
  /// while open, operations are shed (skip-and-count degraded mode). After
  /// `breaker_cooldown_nanos` it half-opens and `breaker_half_open_probes`
  /// consecutive successes close it again.
  bool breaker_enabled = false;
  uint64_t breaker_window_ops = 100;
  double breaker_failure_threshold = 0.5;
  int64_t breaker_cooldown_nanos = 100000000;  // 100 ms.
  uint64_t breaker_half_open_probes = 8;

  bool Enabled() const {
    return op_timeout_nanos > 0 || max_retries > 0 || breaker_enabled;
  }
};

bool operator==(const ResilienceSpec& a, const ResilienceSpec& b);

/// Deterministic exponential-backoff schedule with seeded jitter:
/// delay(attempt) = min(initial * multiplier^(attempt-1), max) * jitter
/// where jitter ~ U[1 - j, 1 + j] from the supplied seed. Attempts are
/// 1-based; attempt 0 gets the initial delay too, so the schedule has no
/// crash path on the executor's hot retry loop.
class RetryBackoff {
 public:
  RetryBackoff(const ResilienceSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed) {}

  int64_t NextDelayNanos(uint32_t attempt);

 private:
  ResilienceSpec spec_;
  Rng rng_;
};

/// Classic three-state circuit breaker over a sliding window of operation
/// outcomes. Thread-safe: state transitions are serialized by an internal
/// mutex so a breaker may be shared between workers (the multi-worker
/// driver normally gives each worker its own instance — that keeps fan-out
/// deterministic — but the class itself must not be the reason a shared
/// configuration races). The lock discipline is compiler-proven: every
/// mutable field is GUARDED_BY(mu_) and Clang Thread Safety Analysis
/// rejects any unlocked access (util/sync.h). Time comes in through the
/// call sites so it works identically under VirtualClock.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(const ResilienceSpec& spec);

  /// Whether a request may proceed at `now_nanos`. May transition
  /// kOpen -> kHalfOpen when the cooldown has elapsed. Returns false only
  /// while open (the caller sheds the operation).
  bool AllowRequest(int64_t now_nanos) LSBENCH_EXCLUDES(mu_);

  void RecordSuccess(int64_t now_nanos) LSBENCH_EXCLUDES(mu_);
  void RecordFailure(int64_t now_nanos) LSBENCH_EXCLUDES(mu_);

  State state() const LSBENCH_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return state_;
  }

  /// Times the breaker left the closed state (degraded-mode entries).
  uint64_t open_count() const LSBENCH_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return open_count_;
  }

  /// Total nanoseconds spent outside the closed state up to `now_nanos`.
  int64_t DegradedNanos(int64_t now_nanos) const LSBENCH_EXCLUDES(mu_);

  /// Arms the registry mirror of the breaker's own tallies: `opens`
  /// increments on every closed -> open transition, `closes` on every
  /// return to closed. Either may be null. Counters are lock-free, so
  /// incrementing them under mu_ cannot deadlock.
  void BindObservability(Counter* opens, Counter* closes)
      LSBENCH_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    opens_counter_ = opens;
    closes_counter_ = closes;
  }

 private:
  void RecordOutcome(int64_t now_nanos, bool failed) LSBENCH_EXCLUDES(mu_);
  void Open(int64_t now_nanos) LSBENCH_REQUIRES(mu_);
  void Close(int64_t now_nanos) LSBENCH_REQUIRES(mu_);

  mutable Mutex mu_;
  const ResilienceSpec spec_;  ///< Immutable after construction; unguarded.
  State state_ LSBENCH_GUARDED_BY(mu_) = State::kClosed;
  /// Ring buffer of the last `breaker_window_ops` outcomes (1 = failure).
  std::vector<uint8_t> window_ LSBENCH_GUARDED_BY(mu_);
  size_t window_head_ LSBENCH_GUARDED_BY(mu_) = 0;
  size_t window_count_ LSBENCH_GUARDED_BY(mu_) = 0;
  uint64_t window_failures_ LSBENCH_GUARDED_BY(mu_) = 0;
  int64_t open_until_nanos_ LSBENCH_GUARDED_BY(mu_) = 0;
  uint64_t half_open_successes_ LSBENCH_GUARDED_BY(mu_) = 0;
  uint64_t open_count_ LSBENCH_GUARDED_BY(mu_) = 0;
  int64_t degraded_accum_nanos_ LSBENCH_GUARDED_BY(mu_) = 0;
  int64_t degraded_since_nanos_ LSBENCH_GUARDED_BY(mu_) = 0;
  Counter* opens_counter_ LSBENCH_GUARDED_BY(mu_) = nullptr;
  Counter* closes_counter_ LSBENCH_GUARDED_BY(mu_) = nullptr;
};

/// One worker's share of a FaultPlan: the seeded stream that decides, per
/// attempt, whether the attempt fails before reaching the SUT and how much
/// injected latency it burns first. Each worker's executor owns one lane,
/// so lanes share no mutable state and need no atomics. All decisions come
/// from per-phase forks of the plan's seed (worker 0's stream is the
/// phase's own; worker w > 0 forks it again), so a faulted run is
/// reproducible bit-for-bit at any worker count.
class FaultLane {
 public:
  /// `plan` must outlive the lane. Injected latency goes through `pacer`,
  /// the worker's own. Starts in phase 0.
  FaultLane(const FaultPlan& plan, uint32_t worker, Pacer pacer);

  /// Re-forks the stream for `phase` and selects its window, so a phase's
  /// decisions never depend on how many draws earlier phases consumed.
  void BeginPhase(int phase);

  /// Draws this attempt's faults: three uniforms in fixed order (fail,
  /// spike, stall), so the stream is stable across plans that enable
  /// different fault kinds. A stall takes priority over a spike. On an
  /// injected failure fills all OpResultCount(op) `results` and returns
  /// true; the attempt must then not reach the SUT. A batch is one request
  /// unit: one decision fails every element.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  bool Inject(const Operation& op, OpResult* results);

  /// What this lane injected so far (execute-path counters only).
  const FaultStats& stats() const { return stats_; }

 private:
  const FaultPlan* plan_;
  uint32_t worker_;
  Pacer pacer_;
  const FaultWindow* window_ = nullptr;
  Rng rng_;
  FaultStats stats_;
};

}  // namespace lsbench

#endif  // LSBENCH_CORE_RESILIENCE_H_
