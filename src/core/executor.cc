#include "core/executor.h"

#include <limits>

#include "util/assert.h"
#include "util/clock.h"

namespace lsbench {

namespace {

/// Simulated cost of shedding one unit while the circuit breaker is open
/// (simulation mode only). Fast-fail is cheap but not free, and advancing
/// virtual time lets the breaker's cooldown elapse in closed-loop phases.
constexpr int64_t kVirtualShedNanos = 1000;  // 1 us.

}  // namespace

ResilientExecutor::ResilientExecutor(SystemUnderTest* sut,
                                     const ResilienceSpec& spec, Pacer pacer,
                                     uint64_t backoff_seed, Options options)
    : sut_(sut),
      spec_(spec),
      pacer_(pacer),
      backoff_(spec, backoff_seed),
      options_(options) {
  LSBENCH_ASSERT(sut != nullptr);
  if (spec.breaker_enabled) breaker_.emplace(spec);
  if (options.faults != nullptr) {
    faults_.emplace(*options.faults, options.worker, pacer);
  }
}

void ResilientExecutor::BindObservability(Tracer* tracer,
                                          StageProfiler* profiler,
                                          MetricsRegistry* registry) {
  tracer_ = tracer;
  profiler_ = profiler;
  if (registry != nullptr) {
    attempts_ = registry->GetCounter("executor.attempts");
    retries_ = registry->GetCounter("executor.retries");
    timeouts_ = registry->GetCounter("executor.timeouts");
    shed_ = registry->GetCounter("executor.shed");
    failures_ = registry->GetCounter("executor.failures");
    if (breaker_) {
      breaker_->BindObservability(registry->GetCounter("breaker.opens"),
                                  registry->GetCounter("breaker.closes"));
    }
  }
}

ExecOutcome ResilientExecutor::Execute(const Operation& op,
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
        sut_->ExecuteBatch(op, results);
      } else {
        results[0] = sut_->Execute(op);
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
