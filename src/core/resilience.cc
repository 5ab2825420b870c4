#include "core/resilience.h"

#include <algorithm>

#include "util/assert.h"

namespace lsbench {

namespace {

/// Stream tags of the fault forks: one per phase from the plan's seed, then
/// one per worker w > 0 from the phase's stream.
constexpr uint64_t kPhaseStreamTag = 0x0fa171ULL;
constexpr uint64_t kLaneStreamTag = 0x1a9e0000ULL;

}  // namespace

bool operator==(const ResilienceSpec& a, const ResilienceSpec& b) {
  return a.op_timeout_nanos == b.op_timeout_nanos &&
         a.max_retries == b.max_retries &&
         a.backoff_initial_nanos == b.backoff_initial_nanos &&
         a.backoff_multiplier == b.backoff_multiplier &&
         a.backoff_max_nanos == b.backoff_max_nanos &&
         a.backoff_jitter == b.backoff_jitter &&
         a.breaker_enabled == b.breaker_enabled &&
         a.breaker_window_ops == b.breaker_window_ops &&
         a.breaker_failure_threshold == b.breaker_failure_threshold &&
         a.breaker_cooldown_nanos == b.breaker_cooldown_nanos &&
         a.breaker_half_open_probes == b.breaker_half_open_probes;
}

int64_t RetryBackoff::NextDelayNanos(uint32_t attempt) {
  double delay = static_cast<double>(spec_.backoff_initial_nanos);
  for (uint32_t i = 1; i < attempt; ++i) delay *= spec_.backoff_multiplier;
  delay = std::min(delay, static_cast<double>(spec_.backoff_max_nanos));
  if (spec_.backoff_jitter > 0.0) {
    const double factor =
        1.0 + spec_.backoff_jitter * (2.0 * rng_.NextDouble() - 1.0);
    delay *= factor;
  }
  return std::max<int64_t>(0, static_cast<int64_t>(delay));
}

CircuitBreaker::CircuitBreaker(const ResilienceSpec& spec) : spec_(spec) {
  LSBENCH_ASSERT(spec.breaker_window_ops > 0);
  window_.assign(spec.breaker_window_ops, 0);
}

bool CircuitBreaker::AllowRequest(int64_t now_nanos) {
  MutexLock lock(mu_);
  if (state_ == State::kOpen) {
    if (now_nanos < open_until_nanos_) return false;
    state_ = State::kHalfOpen;
    half_open_successes_ = 0;
  }
  return true;
}

void CircuitBreaker::RecordOutcome(int64_t now_nanos, bool failed) {
  MutexLock lock(mu_);
  if (state_ == State::kHalfOpen) {
    if (failed) {
      Open(now_nanos);  // A probe failed: back to open, fresh cooldown.
    } else if (++half_open_successes_ >= spec_.breaker_half_open_probes) {
      Close(now_nanos);
    }
    return;
  }
  if (state_ != State::kClosed) return;  // Shed requests are not recorded.
  window_failures_ -= window_[window_head_];
  window_[window_head_] = failed ? 1 : 0;
  window_failures_ += window_[window_head_];
  window_head_ = (window_head_ + 1) % window_.size();
  window_count_ = std::min(window_count_ + 1, window_.size());
  if (window_count_ == window_.size() &&
      static_cast<double>(window_failures_) /
              static_cast<double>(window_count_) >=
          spec_.breaker_failure_threshold) {
    Open(now_nanos);
  }
}

void CircuitBreaker::RecordSuccess(int64_t now_nanos) {
  RecordOutcome(now_nanos, /*failed=*/false);
}

void CircuitBreaker::RecordFailure(int64_t now_nanos) {
  RecordOutcome(now_nanos, /*failed=*/true);
}

void CircuitBreaker::Open(int64_t now_nanos) {
  if (state_ == State::kClosed) degraded_since_nanos_ = now_nanos;
  state_ = State::kOpen;
  open_until_nanos_ = now_nanos + spec_.breaker_cooldown_nanos;
  ++open_count_;
  if (opens_counter_ != nullptr) opens_counter_->Increment();
  half_open_successes_ = 0;
}

void CircuitBreaker::Close(int64_t now_nanos) {
  state_ = State::kClosed;
  if (closes_counter_ != nullptr) closes_counter_->Increment();
  degraded_accum_nanos_ += now_nanos - degraded_since_nanos_;
  std::fill(window_.begin(), window_.end(), 0);
  window_head_ = 0;
  window_count_ = 0;
  window_failures_ = 0;
}

int64_t CircuitBreaker::DegradedNanos(int64_t now_nanos) const {
  MutexLock lock(mu_);
  int64_t total = degraded_accum_nanos_;
  if (state_ != State::kClosed) total += now_nanos - degraded_since_nanos_;
  return total;
}

FaultLane::FaultLane(const FaultPlan& plan, uint32_t worker, Pacer pacer)
    : plan_(&plan), worker_(worker), pacer_(pacer) {
  BeginPhase(0);
}

void FaultLane::BeginPhase(int phase) {
  window_ = plan_->WindowForPhase(phase);
  rng_ = Rng(plan_->seed).Fork(static_cast<uint64_t>(phase) + kPhaseStreamTag);
  if (worker_ > 0) rng_ = rng_.Fork(kLaneStreamTag + worker_);
}

bool FaultLane::Inject(const Operation& op, OpResult* results) {
  if (window_ == nullptr) return false;
  const FaultWindow& w = *window_;
  const double u_fail = rng_.NextDouble();
  const double u_spike = rng_.NextDouble();
  const double u_stall = rng_.NextDouble();
  if (w.stall_rate > 0.0 && u_stall < w.stall_rate) {
    ++stats_.injected_stalls;
    pacer_.PaceUntil(pacer_.clock()->NowNanos() + w.stall_nanos);
  } else if (w.latency_spike_rate > 0.0 && u_spike < w.latency_spike_rate) {
    ++stats_.injected_spikes;
    pacer_.PaceUntil(pacer_.clock()->NowNanos() + w.latency_spike_nanos);
  }
  if (w.execute_fail_rate <= 0.0 || u_fail >= w.execute_fail_rate) {
    return false;
  }
  ++stats_.injected_failures;
  const Status injected(w.execute_fail_code, "injected fault");
  const uint32_t count = OpResultCount(op);
  for (uint32_t i = 0; i < count; ++i) {
    OpResult& r = results[i];
    r.ok = false;
    r.rows = 0;
    r.status = injected;
  }
  return true;
}

}  // namespace lsbench
