#ifndef LSBENCH_CORE_WORKLOAD_STREAM_H_
#define LSBENCH_CORE_WORKLOAD_STREAM_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "core/run_spec.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "util/annotate.h"
#include "util/random.h"
#include "workload/arrival.h"
#include "workload/generator.h"
#include "workload/operation.h"

namespace lsbench {

/// Stage 1 of the execution core: turns a RunSpec's phase sequence into a
/// paced operation stream for one worker. Owns phase-transition blending
/// (the old phase's generator fades out per the configured ramp), arrival
/// pacing (open-loop intended arrivals vs. closed-loop issue-on-completion),
/// and the per-phase RNG forking discipline.
///
/// Determinism contract: a WorkloadStream seeded with `Rng(spec.seed)` and
/// rate_scale 1.0 reproduces the historical monolithic driver's draw
/// sequence bit-for-bit — generator seeds fork as `root.Fork(phase*2 + 1)`,
/// the blend/arrival stream as `root.Fork(phase*2 + 2)`, in that order, and
/// each operation consumes draws in the fixed order (blend?, op, inter-
/// arrival). Additional workers seed disjoint streams from further forks of
/// the run seed, so enabling fan-out never perturbs worker 0.
///
/// A phase's operations come from one of two sources: its generator, or —
/// for a trace phase (`PhaseSpec::trace`) — the recorded trace, taken in
/// order with no generator built. Arrival draws are the same for both, so
/// a trace recorded from a phase's generator seed replays as that phase
/// bit-for-bit. Under fan-out, worker w of N replays trace
/// entries w, w+N, w+2N, ... — exactly WorkerShare(size, N, w) of them.
class WorkloadStream {
 public:
  /// `spec` must outlive the stream. `root` is this worker's RNG root;
  /// `rate_scale` divides open-loop arrival rates across workers (1/N so N
  /// workers still present the spec's aggregate offered load). `worker` of
  /// `workers` picks this stream's stride through trace phases.
  WorkloadStream(const RunSpec* spec, Rng root, double rate_scale,
                 uint32_t worker = 0, uint32_t workers = 1);

  WorkloadStream(const WorkloadStream&) = delete;
  WorkloadStream& operator=(const WorkloadStream&) = delete;
  WorkloadStream(WorkloadStream&&) = default;

  /// Enters phase `phase_idx` with this worker's share of the phase's
  /// operations and transition window. `now_rel_nanos` re-anchors open-loop
  /// pacing at the current run-relative time (matching the monolith, which
  /// reset intended arrivals at each phase start).
  void BeginPhase(size_t phase_idx, uint64_t num_operations,
                  uint64_t transition_operations, int64_t now_rel_nanos);

  /// Whether the current phase still has operations to issue.
  bool HasNext() const { return pending_.has_value() || issued_ < phase_ops_; }

  /// One issued operation and when it is intended to start (run-relative).
  struct Issue {
    Operation op;
    int64_t arrival_rel_nanos = 0;
    /// Closed-loop issues have no intended arrival of their own (they start
    /// at the previous completion); open-loop issues are paced.
    bool open_loop = false;
  };

  /// Draws the next operation of the current phase. Requires HasNext().
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  Issue Next();

  /// The operation Next() would return, without consuming it. The service
  /// driver uses this to decide whether the next intended arrival is due
  /// before admitting it to the queue. Drawing eagerly does not perturb the
  /// RNG sequence — the draws happen in the same order either way — and the
  /// issue counter still ticks once per operation, at Next().
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  const Issue& Peek();

  /// Feeds back the completion time of the last issued operation —
  /// closed-loop pacing issues the next operation at this instant.
  void RecordCompletion(int64_t completion_rel_nanos) {
    last_completion_rel_ = completion_rel_nanos;
  }

  /// Arms the generation profiling hook (Stage::kGenerate) and the issue
  /// counter. Either pointer may be null; observing the stream never
  /// perturbs its draw sequence. Call before the first Next().
  void BindObservability(StageProfiler* profiler, Counter* ops_issued) {
    profiler_ = profiler;
    ops_issued_ = ops_issued;
  }

 private:
  /// Draws one issue from the generators / arrival process (shared by
  /// Next() and Peek()); does not touch the issue counter.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  Issue Draw();

  const RunSpec* spec_;
  Rng root_;
  double rate_scale_;
  uint32_t worker_;
  uint32_t workers_;

  // Current-phase state.
  size_t phase_idx_ = 0;
  uint64_t phase_ops_ = 0;
  uint64_t transition_ops_ = 0;
  uint64_t issued_ = 0;
  bool blend_ = false;
  std::unique_ptr<OperationGenerator> generator_;
  std::unique_ptr<OperationGenerator> prev_generator_;
  /// The current phase's trace; null for a generated phase.
  const OperationTrace* trace_ = nullptr;
  std::unique_ptr<ArrivalProcess> arrival_;
  Rng mix_rng_;

  // Pacing state (persists across phases, like the monolith's locals).
  int64_t intended_rel_ = 0;
  int64_t last_completion_rel_ = 0;

  // Peek() cache: an issue drawn ahead of its Next() call.
  std::optional<Issue> pending_;

  // Observability hooks (null = disabled).
  StageProfiler* profiler_ = nullptr;
  Counter* ops_issued_ = nullptr;
};

}  // namespace lsbench

#endif  // LSBENCH_CORE_WORKLOAD_STREAM_H_
