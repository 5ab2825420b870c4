#ifndef LSBENCH_OBS_PROFILE_H_
#define LSBENCH_OBS_PROFILE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/annotate.h"
#include "util/clock.h"

namespace lsbench {

/// The instrumented pipeline stages. Per-phase stage-time totals are the
/// report's "where did the time go" breakdown — the paper's Lesson-1 point
/// that a single throughput number hides generation vs execution vs
/// retraining time.
enum class Stage : uint8_t {
  kLoad = 0,      ///< Dataset load into the SUT (run-level).
  kTrain,         ///< Offline training before phase 0 (run-level).
  kGenerate,      ///< WorkloadStream::Next — operation generation.
  kPace,          ///< Arrival pacing (virtual jump or spin-wait).
  kExecute,       ///< SUT execute attempts inside ResilientExecutor.
  kBackoff,       ///< Retry backoff waits.
  kRecord,        ///< EventSink::Record append.
  kMerge,         ///< Post-run shard merge (run-level).
  kMetrics,       ///< Post-run metrics computation (run-level).
};

inline constexpr size_t kNumStages = 9;

std::string_view StageName(Stage stage);

/// Accumulated wall (or virtual) time for one stage within one phase.
struct StageAccum {
  int64_t total_nanos = 0;
  uint64_t samples = 0;
};

/// One phase's stage-time totals. Phase kRunLevelPhase holds run-scoped
/// stages (load/train/merge/metrics) that precede or follow all phases.
struct PhaseStageBreakdown {
  static constexpr int32_t kRunLevelPhase = -1;

  int32_t phase = kRunLevelPhase;
  std::array<StageAccum, kNumStages> stages{};

  int64_t TotalNanos() const {
    int64_t total = 0;
    for (const StageAccum& accum : stages) total += accum.total_nanos;
    return total;
  }
};

/// Per-phase breakdowns sorted by phase (run-level entry first).
using StageBreakdown = std::vector<PhaseStageBreakdown>;

/// Accumulates `shard` into `target`, summing stage totals phase-by-phase.
/// Both inputs and the output are sorted by phase.
void MergeStageBreakdown(StageBreakdown* target, const StageBreakdown& shard);

/// One worker's (or the driver's) stage-time accumulator. Single-writer,
/// no synchronization — same sharding discipline as EventSink/Tracer.
/// Disabled until Bind(); when disabled, Add() and timers are no-ops.
class StageProfiler {
 public:
  StageProfiler() = default;

  /// Arms the profiler against `clock` (the worker's private virtual clock
  /// in simulation mode). `clock` must outlive the profiler. Creates the
  /// current phase's accumulator eagerly so Add never has to.
  void Bind(const Clock* clock) {
    clock_ = clock;
    current_ = &AccumFor(phase_);
  }

  bool enabled() const { return clock_ != nullptr; }
  int64_t NowNanos() const { return clock_->NowNanos(); }

  /// Phase charged by subsequent Add() calls; kRunLevelPhase for run-scoped
  /// work outside any phase. Phase transitions are cold: the accumulator
  /// entry (the only allocation in this class) is created here, keeping
  /// Add allocation-free.
  void set_phase(int32_t phase) {
    phase_ = phase;
    if (enabled()) current_ = &AccumFor(phase);
  }
  int32_t phase() const { return phase_; }

  /// Charges `nanos` to `stage` in the current phase, as `samples`
  /// samples. No-op while disabled.
  LSBENCH_HOT_PATH
  LSBENCH_DETERMINISTIC
  void Add(Stage stage, int64_t nanos, uint64_t samples = 1) {
    if (current_ == nullptr) return;
    StageAccum& accum = current_->stages[static_cast<size_t>(stage)];
    accum.total_nanos += nanos;
    accum.samples += samples;
  }

  /// Sorted-by-phase export (run-level entry first when present).
  StageBreakdown Breakdown() const;

 private:
  PhaseStageBreakdown& AccumFor(int32_t phase);

  const Clock* clock_ = nullptr;
  int32_t phase_ = PhaseStageBreakdown::kRunLevelPhase;
  /// Accumulator for the current phase; null until Bind. Refreshed on every
  /// phase transition — AccumFor may reallocate phases_, so this is the
  /// only cached pointer into it.
  PhaseStageBreakdown* current_ = nullptr;
  // Unsorted accumulation order (phases arrive monotonically anyway);
  // Breakdown() sorts on export.
  std::vector<PhaseStageBreakdown> phases_;
};

/// RAII stage timer: charges the elapsed time between construction and
/// destruction to (profiler's current phase, stage), as `samples` samples.
/// Null or unbound profiler → both ends are a branch and nothing else.
class StageTimer {
 public:
  StageTimer(StageProfiler* profiler, Stage stage, uint64_t samples = 1)
      : profiler_(profiler != nullptr && profiler->enabled() ? profiler
                                                             : nullptr),
        stage_(stage),
        samples_(samples),
        start_nanos_(profiler_ != nullptr ? profiler_->NowNanos() : 0) {}

  ~StageTimer() {
    if (profiler_ != nullptr) {
      profiler_->Add(stage_, profiler_->NowNanos() - start_nanos_, samples_);
    }
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageProfiler* profiler_;
  Stage stage_;
  uint64_t samples_;
  int64_t start_nanos_;
};

}  // namespace lsbench

// Scoped profiling hook. `profiler` is a `StageProfiler*` (may be null).
#define LSBENCH_PROFILE_STAGE_CONCAT2(a, b) a##b
#define LSBENCH_PROFILE_STAGE_CONCAT(a, b) LSBENCH_PROFILE_STAGE_CONCAT2(a, b)
#define LSBENCH_PROFILE_STAGE(profiler, stage)         \
  ::lsbench::StageTimer LSBENCH_PROFILE_STAGE_CONCAT(  \
      lsbench_stage_, __LINE__)((profiler), (stage))

#endif  // LSBENCH_OBS_PROFILE_H_
