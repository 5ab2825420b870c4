#ifndef LSBENCH_SUT_FAULT_PLAN_H_
#define LSBENCH_SUT_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace lsbench {

/// One row of a fault schedule: the faults injected while a given phase is
/// running. `phase == -1` is a wildcard matching every phase; an exact
/// phase match takes precedence over the wildcard (and among equally
/// specific windows, the last one wins), so plans can describe a healthy
/// baseline plus a burst of faults correlated with a distribution shift.
struct FaultWindow {
  int32_t phase = -1;

  /// Probability that an execute attempt fails before reaching the SUT.
  double execute_fail_rate = 0.0;
  /// Code attached to injected Execute failures (a transient code makes
  /// the driver retry; a permanent one fails the operation immediately).
  StatusCode execute_fail_code = StatusCode::kUnavailable;

  /// Probability / duration of a moderate injected latency spike.
  double latency_spike_rate = 0.0;
  int64_t latency_spike_nanos = 0;

  /// Probability / duration of a long stall (a hung request).
  double stall_rate = 0.0;
  int64_t stall_nanos = 0;

  /// Training faults: report failure, and/or hang before returning.
  bool fail_train = false;
  int64_t train_hang_nanos = 0;
};

bool operator==(const FaultWindow& a, const FaultWindow& b);

/// A seeded, fully deterministic description of every fault the driver
/// will inject during a run. Identical plans + identical seeds produce
/// identical injection decisions (per-phase forked RNG streams), including
/// under VirtualClock simulation.
struct FaultPlan {
  uint64_t seed = 0x5eedfa17u;
  /// Fails the run's one load (LoadKeys) with an injected I/O error (the
  /// driver never retries it), so the SUT is never loaded.
  bool fail_load = false;
  std::vector<FaultWindow> windows;

  bool Empty() const { return windows.empty() && !fail_load; }

  /// The active window for `phase`, or nullptr when none matches.
  const FaultWindow* WindowForPhase(int phase) const;
};

bool operator==(const FaultPlan& a, const FaultPlan& b);

/// What fault injection actually did during a run.
struct FaultStats {
  uint64_t injected_failures = 0;  ///< Attempts failed before the SUT.
  uint64_t injected_spikes = 0;
  uint64_t injected_stalls = 0;
  uint64_t failed_trains = 0;
  uint64_t hung_trains = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_SUT_FAULT_PLAN_H_
