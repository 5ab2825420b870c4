#include "core/service.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace lsbench {

AdmissionQueue::AdmissionQueue(const ServiceSpec& spec)
    : capacity_(spec.queue_capacity),
      policy_(spec.policy),
      slo_nanos_(spec.slo_p99_nanos),
      max_shed_fraction_(spec.max_shed_fraction) {
  LSBENCH_ASSERT(capacity_ > 0);
  ring_.resize(capacity_);
}

void AdmissionQueue::BindObservability(Gauge* depth_gauge,
                                       Gauge* peak_depth_gauge,
                                       Counter* admitted_counter,
                                       Counter* shed_counter,
                                       LockedHistogram* queue_wait) {
  depth_gauge_ = depth_gauge;
  peak_depth_gauge_ = peak_depth_gauge;
  admitted_counter_ = admitted_counter;
  shed_counter_ = shed_counter;
  queue_wait_ = queue_wait;
}

bool AdmissionQueue::SloShed(const WorkloadStream::Issue& issue,
                             int64_t now_rel_nanos, bool degraded) const {
  // Predicted response time if admitted now: everything already queued must
  // drain first, one smoothed service time each, plus this operation's own.
  const int64_t backlog =
      static_cast<int64_t>(count_ + 1) * service_ema_nanos_;
  const int64_t predicted_completion = now_rel_nanos + backlog;
  const int64_t deadline = issue.arrival_rel_nanos + slo_nanos_;
  bool miss = predicted_completion > deadline;
  // While the breaker is degraded the smoothed service time lags reality
  // (sheds and failures are fast), so also shed anything already past its
  // deadline at admission time.
  if (degraded && now_rel_nanos >= deadline) miss = true;
  if (!miss) return false;
  // Budget check: predictive sheds may not push the realized shed fraction
  // past max_shed_fraction of offered load. offered_ already counts this
  // arrival.
  return static_cast<double>(shed_ + 1) <=
         max_shed_fraction_ * static_cast<double>(offered_);
}

void AdmissionQueue::CountShed(const WorkloadStream::Issue& issue) {
  (void)issue;
  ++shed_;
  if (shed_counter_ != nullptr) shed_counter_->Increment();
}

AdmissionQueue::Admission AdmissionQueue::Offer(
    const WorkloadStream::Issue& issue, int64_t now_rel_nanos,
    bool degraded) {
  ++offered_;
  Admission result;

  if (policy_ == OverloadPolicy::kSloShed && slo_nanos_ > 0 &&
      SloShed(issue, now_rel_nanos, degraded)) {
    CountShed(issue);
    result.admitted = false;
    result.shed = issue;
    return result;
  }

  if (count_ >= capacity_) {
    // Full queue: something must go, regardless of budget (the queue bound
    // is structural; max_shed_fraction only limits *predictive* sheds).
    if (policy_ == OverloadPolicy::kDropOldest) {
      result.shed = Front();
      DropFront();
      CountShed(*result.shed);
    } else {
      // kDropNewest, and kSloShed once its budget is spent.
      CountShed(issue);
      result.admitted = false;
      result.shed = issue;
      return result;
    }
  }

  PushBack(issue);
  peak_depth_ = std::max(peak_depth_, count_);
  ++admitted_;
  result.admitted = true;
  if (admitted_counter_ != nullptr) admitted_counter_->Increment();
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(count_));
  }
  if (peak_depth_gauge_ != nullptr) {
    peak_depth_gauge_->Set(static_cast<int64_t>(peak_depth_));
  }
  return result;
}

WorkloadStream::Issue AdmissionQueue::PopFront(int64_t now_rel_nanos) {
  LSBENCH_ASSERT(count_ > 0);
  WorkloadStream::Issue issue = Front();
  DropFront();
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(count_));
  }
  if (queue_wait_ != nullptr) {
    queue_wait_->Record(
        std::max<int64_t>(0, now_rel_nanos - issue.arrival_rel_nanos));
  }
  return issue;
}

void AdmissionQueue::RecordServiceTime(int64_t service_nanos) {
  if (service_nanos < 0) service_nanos = 0;
  // Integer EMA with alpha = 1/4 — deterministic, no floating-point drift
  // across platforms.
  service_ema_nanos_ = service_ema_nanos_ == 0
                           ? service_nanos
                           : (3 * service_ema_nanos_ + service_nanos) / 4;
}

}  // namespace lsbench
