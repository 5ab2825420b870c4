#ifndef LSBENCH_OBS_METRICS_REGISTRY_H_
#define LSBENCH_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/atomic.h"
#include "util/histogram.h"
#include "util/sync.h"

namespace lsbench {

/// Monotone event tally. Increments are lock-free (relaxed atomics): a
/// counter is a pure accumulator, never used for cross-thread ordering, and
/// per-shard counters are merged deterministically after the run.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_.Add(delta); }
  uint64_t value() const { return value_.Load(); }

 private:
  Atomic<uint64_t> value_{0};
};

/// Last-written signed level (queue depth, resident bytes, breaker state).
/// Shard merge sums gauges, which is the right semantics for per-worker
/// levels (total in-flight = sum of per-worker in-flight).
class Gauge {
 public:
  void Set(int64_t value) { value_.Store(value); }
  void Add(int64_t delta) { value_.Add(delta); }
  int64_t value() const { return value_.Load(); }

 private:
  Atomic<int64_t> value_{0};
};

/// Thread-safe recorder into a log-bucketed Histogram (util/histogram.h),
/// the type behind every latency the report prints. Record() takes a Mutex,
/// uncontended when only one worker records into the instrument, as with
/// each worker's own `service.queue_wait`. Every instrument has the same
/// bucket layout, so any two snapshots merge.
class LockedHistogram {
 public:
  void Record(int64_t nanos);
  Histogram Snapshot() const;

 private:
  mutable Mutex mu_;
  Histogram hist_ LSBENCH_GUARDED_BY(mu_);
};

/// Plain-data export of a registry: sorted name→value vectors, so report
/// iteration order is deterministic by construction.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, Histogram>> histograms;

  /// Accumulates another shard's snapshot: counters and gauges sum,
  /// histograms bucket-merge. Names present in only one shard pass through —
  /// workers need not register identical metric sets.
  void MergeFrom(const MetricsSnapshot& other);

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Owner of named instruments. One registry per worker (plus one for the
/// driver), merged after the run like event shards. Get* registers on first
/// use and returns a stable pointer — instruments never move once created —
/// so components hold raw Counter*/Gauge* across the run and increment
/// without ever touching the registry lock again. Lookup itself is
/// Mutex-guarded so Get* is safe from any thread, but the intended
/// discipline is: resolve instruments at bind time, increment on the hot
/// path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LockedHistogram* GetHistogram(const std::string& name);

  /// Deterministic (name-sorted) export of every registered instrument.
  MetricsSnapshot Snapshot() const;

 private:
  mutable Mutex mu_;
  // std::map: pointer-stable values and sorted iteration for Snapshot().
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LSBENCH_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      LSBENCH_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LockedHistogram>> histograms_
      LSBENCH_GUARDED_BY(mu_);
};

/// Merges per-worker snapshots into one. Shards may carry disjoint metric
/// name sets.
MetricsSnapshot MergeMetricsShards(const std::vector<MetricsSnapshot>& shards);

}  // namespace lsbench

#endif  // LSBENCH_OBS_METRICS_REGISTRY_H_
