#ifndef LSBENCH_CORE_SERVICE_H_
#define LSBENCH_CORE_SERVICE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/run_spec.h"
#include "core/workload_stream.h"
#include "obs/metrics_registry.h"
#include "util/annotate.h"

namespace lsbench {

/// Bounded admission queue in front of the resilient executor — the heart of
/// open-loop service mode. The driver offers every operation at its intended
/// arrival time; the queue either admits it (FIFO) or sheds it per the
/// configured OverloadPolicy. Shedding is what keeps an overloaded run
/// bounded: without it, an open-loop schedule faster than the SUT grows the
/// backlog (and every response time) without limit.
///
/// Entirely deterministic: decisions depend only on the offered sequence,
/// the current virtual/real time, and the policy — no RNG, no wall-clock
/// reads of its own. That is what lets the overload test assert shed counts
/// against a hand-computed schedule and the CI job demand byte-identical
/// traces across runs.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const ServiceSpec& spec);

  /// Outcome of offering one arrival. At most one operation is shed per
  /// offer: either the arrival itself (`admitted == false`) or, under
  /// drop-oldest, the previous head (`admitted == true` and `shed` set).
  struct Admission {
    bool admitted = false;
    std::optional<WorkloadStream::Issue> shed;
  };

  /// Offers the issue whose intended arrival is due at `now_rel_nanos`.
  /// `degraded` is the circuit breaker's view (non-closed state): the
  /// SLO-aware policy sheds more eagerly while the SUT is degraded, which is
  /// the coordination point between admission control and the resilience
  /// layer.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  Admission Offer(const WorkloadStream::Issue& issue, int64_t now_rel_nanos,
                  bool degraded);

  /// Dequeues the next admitted operation; records its queue wait relative
  /// to `now_rel_nanos`. Requires !empty().
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  WorkloadStream::Issue PopFront(int64_t now_rel_nanos);

  /// Feeds back the observed execution time of a completed operation. The
  /// SLO-aware shedder predicts queue delay as depth x a smoothed service
  /// time (integer EMA, deterministic).
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void RecordServiceTime(int64_t service_nanos);

  bool empty() const { return count_ == 0; }
  size_t depth() const { return count_; }
  size_t peak_depth() const { return peak_depth_; }
  uint64_t offered() const { return offered_; }
  uint64_t admitted() const { return admitted_; }
  uint64_t shed() const { return shed_; }

  /// Arms queue instruments (any may be null): current depth and high-water
  /// gauges, admitted/shed counters, queue-wait histogram. Reading the queue
  /// never changes its decisions.
  void BindObservability(Gauge* depth_gauge, Gauge* peak_depth_gauge,
                         Counter* admitted_counter, Counter* shed_counter,
                         LockedHistogram* queue_wait);

 private:
  /// Whether the SLO-aware policy sheds this arrival. Budgeted: predictive
  /// sheds stop once they would exceed `max_shed_fraction` of offered load
  /// (forced full-queue sheds are exempt — the queue bound always holds).
  bool SloShed(const WorkloadStream::Issue& issue, int64_t now_rel_nanos,
               bool degraded) const;

  void CountShed(const WorkloadStream::Issue& issue);

  WorkloadStream::Issue& Front() { return ring_[head_]; }
  void PushBack(const WorkloadStream::Issue& issue) {
    ring_[(head_ + count_) % ring_.size()] = issue;
    ++count_;
  }
  void DropFront() {
    head_ = (head_ + 1) % ring_.size();
    --count_;
  }

  const uint32_t capacity_;
  const OverloadPolicy policy_;
  const int64_t slo_nanos_;
  const double max_shed_fraction_;

  /// Fixed ring of `capacity_` slots, allocated once at construction —
  /// Offer/PopFront stay allocation-free on the hot path (deepcheck rule
  /// hot-alloc). Issue is a POD, so slot writes are plain copies.
  std::vector<WorkloadStream::Issue> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  size_t peak_depth_ = 0;
  uint64_t offered_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  /// Smoothed service time in nanos; 0 until the first completion.
  int64_t service_ema_nanos_ = 0;

  Gauge* depth_gauge_ = nullptr;
  Gauge* peak_depth_gauge_ = nullptr;
  Counter* admitted_counter_ = nullptr;
  Counter* shed_counter_ = nullptr;
  LockedHistogram* queue_wait_ = nullptr;
};

}  // namespace lsbench

#endif  // LSBENCH_CORE_SERVICE_H_
