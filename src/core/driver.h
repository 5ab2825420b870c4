#ifndef LSBENCH_CORE_DRIVER_H_
#define LSBENCH_CORE_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/events.h"
#include "core/metrics.h"
#include "core/run_spec.h"
#include "obs/observability.h"
#include "sut/fault_plan.h"
#include "sut/sut.h"
#include "util/clock.h"
#include "util/status.h"

namespace lsbench {

class EventSink;

/// Everything a single benchmark run produces.
struct RunResult {
  std::string sut_name;
  std::string run_name;
  RunMetrics metrics;
  EventStream events;
  std::vector<PhaseBoundary> boundaries;
  /// Timed offline/load work (not part of the event stream).
  double load_seconds = 0.0;
  std::vector<TrainEvent> train_events;
  SutStats final_sut_stats;
  /// What the fault injector did (all zero when the spec has no faults).
  FaultStats fault_stats;
  /// Merged observability output (trace, metrics snapshot, stage times);
  /// empty apart from the echoed spec when observability is off.
  ObsReport observability;

  /// Total offline training wall time across train_events, seconds.
  double OfflineTrainSeconds() const;
};

/// Driver configuration beyond the RunSpec.
struct DriverOptions {
  /// When non-null, the driver runs in *simulation mode*: it never spins on
  /// wall time; instead it advances this clock to each intended arrival and
  /// by `virtual_service_nanos` per executed operation. The same object
  /// must be the driver's clock. Deterministic end-to-end runs for tests.
  /// Under `workers > 1` each worker advances a private virtual clock and
  /// the driver synchronizes them (and this clock) to the maximum at every
  /// phase boundary — a virtual barrier, so simulated multi-worker runs
  /// are deterministic too.
  VirtualClock* virtual_clock = nullptr;
  int64_t virtual_service_nanos = 100000;  // 100 us.
  /// Enforce the paper's single-execution rule for hold-out phases via the
  /// process-wide registry.
  bool enforce_holdout_once = true;
};

/// The LSBench benchmark driver: executes a RunSpec against a SUT, producing
/// a timestamped event stream and the full metric suite. Implements the
/// paper's execution model — phase sequencing with configurable transitions,
/// training as a timed first-class step, open/closed-loop arrivals, and
/// hold-out phases that are never trained on and run at most once.
///
/// Execution is staged (docs/ARCHITECTURE.md): WorkloadStream issues and
/// paces operations, ResilientExecutor applies the timeout/retry/breaker
/// policy around each Execute, and EventSink shards completed events per
/// worker. `spec.execution.workers` fans the stream out to N workers, each
/// with a forked RNG stream, its own executor, and its own event shard;
/// shards merge deterministically by (timestamp, worker, seq) before
/// metrics. `workers == 1` is bit-identical to the historical serial
/// driver. Serial SUTs run under fan-out behind a driver-side lock
/// (SerializingSut); thread-safe SUTs opt in via
/// SystemUnderTest::concurrency().
///
/// When the spec carries a FaultPlan, each worker's executor draws that
/// worker's faults (a FaultLane) before every attempt, so the SUT itself is
/// never wrapped; load and training faults are injected by the driver.
/// The spec's ResilienceSpec governs how the driver responds to failures:
/// per-op timeout budgets (deadline measured from the intended arrival),
/// retry with exponential backoff and seeded jitter for transient codes,
/// and a circuit breaker per worker that sheds load (skip-and-count
/// degraded mode) while the error rate is above threshold.
class BenchmarkDriver {
 public:
  /// `clock` must outlive the driver; nullptr selects an internal RealClock.
  explicit BenchmarkDriver(const Clock* clock = nullptr,
                           DriverOptions options = {});

  /// Runs the full benchmark. The SUT is loaded, optionally trained, then
  /// driven through every phase.
  Result<RunResult> Run(const RunSpec& spec, SystemUnderTest* sut);

  /// Clears the process-wide hold-out registry (tests only).
  static void ResetHoldoutRegistryForTesting();

 private:
  RealClock default_clock_;
  const Clock* clock_;
  DriverOptions options_;
};

/// Builds the initial load image for a spec: the first phase's dataset as
/// (key, ordinal) pairs.
std::vector<KeyValue> BuildLoadImage(const RunSpec& spec);

/// Outcome-arena slots for `ops` draws of one phase on one worker, when
/// each draw is a batch of `batch_size` elements with probability
/// `batch_probability` and one element otherwise: the expected count of
/// elements in batch units plus `margin_sigmas` standard deviations of the
/// batch-unit count (each unit adds batch_size elements), capped at the
/// worst case of `ops * batch_size`. 0 when no draw is a batch.
uint64_t ExpectedBatchElements(uint64_t ops, double batch_probability,
                               uint64_t batch_size, double margin_sigmas);

/// Sizes worker `worker`'s sink for a run of `spec`, as the driver does
/// before the first phase: exactly the worker's share of every phase's
/// request units, and ExpectedBatchElements outcomes per phase.
void ReserveWorkerSink(const RunSpec& spec, uint32_t worker, EventSink* sink);

/// The run's unit accounting, checked after the phases on every run. For
/// every phase, each worker's fold of its request units
/// (`worker_folds[w]`, ShardAccumulation::AccumulateUnits) counts exactly
/// its WorkerShare of PhaseBoundary::operations, and the elements those
/// units carry, summed over workers, equal the phase's operations in
/// `metrics`. A violation is Status::Internal naming the phase (and the
/// worker, for a unit count).
Status AuditUnitAccounting(const std::vector<ShardAccumulation>& worker_folds,
                           const RunMetrics& metrics);

/// The registry's counts of what the run drew, executed and recorded,
/// checked after the phases on every run whose metrics registry is armed,
/// against `run_fold`, the merge of the workers' folds of their units:
///   - `stream.ops_issued` equals the request units folded, queue-shed
///     units included;
///   - `sink.events_recorded` equals the elements those units carry;
///   - `executor.attempts` equals ShardAccumulation::attempts;
///   - `service.shed` equals ShardAccumulation::queue_shed_units, since
///     every shed the admission queue counts is recorded as one unit.
/// A missing counter counts 0. A mismatch is Status::Internal naming the
/// counter and both counts.
Status AuditRegistryCounters(const MetricsSnapshot& metrics,
                             const ShardAccumulation& run_fold);

/// This worker's share of `total` items under the driver's round-robin
/// split: total/workers plus one of the first (total % workers) remainders.
/// Shares over all workers always sum to `total`.
uint64_t WorkerShare(uint64_t total, uint32_t workers, uint32_t worker);

}  // namespace lsbench

#endif  // LSBENCH_CORE_DRIVER_H_
