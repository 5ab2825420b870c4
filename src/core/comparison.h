#ifndef LSBENCH_CORE_COMPARISON_H_
#define LSBENCH_CORE_COMPARISON_H_

#include <string>
#include <vector>

#include "core/driver.h"
#include "core/run_spec.h"
#include "sut/sut.h"

namespace lsbench {

/// One system's row in a side-by-side comparison.
struct ComparisonRow {
  std::string sut_name;
  double mean_throughput = 0.0;
  double p50_latency_nanos = 0.0;
  double p99_latency_nanos = 0.0;
  uint64_t sla_violations = 0;
  double adjustment_excess_seconds = 0.0;  ///< Summed over all phases.
  double area_vs_ideal = 0.0;
  double offline_train_seconds = 0.0;
  double online_train_seconds = 0.0;
  uint64_t retrain_events = 0;
  size_t memory_bytes = 0;
};

/// The fair-comparison harness the paper calls for (§IV: "provide a factual
/// basis for comparing several systems, whether they be learned systems or
/// a mix of learned and traditional systems"): runs the *same* spec against
/// every SUT with identical seeds, collects a row per system, and keeps the
/// full per-system results for figure-level reports.
struct ComparisonReport {
  std::string run_name;
  std::vector<ComparisonRow> rows;
  std::vector<RunResult> results;  ///< Parallel to rows.

  /// Index of the row with the highest mean throughput.
  size_t BestThroughputIndex() const;
};

/// Runs `spec` against each SUT in order. Hold-out single-execution applies
/// to the spec as a whole: with enforcement on, a spec with hold-out phases
/// and more than one SUT is refused with FailedPrecondition before any run,
/// so the refusal leaves the hold-out unclaimed. Disable enforcement in
/// `driver_options` (the CLI's --no-holdout-enforcement) to compare SUTs
/// under such a spec.
Result<ComparisonReport> CompareSystems(
    const RunSpec& spec, const std::vector<SystemUnderTest*>& suts,
    const Clock* clock = nullptr, DriverOptions driver_options = {});

/// Extracts a comparison row from a finished run.
ComparisonRow MakeComparisonRow(const RunResult& result);

}  // namespace lsbench

#endif  // LSBENCH_CORE_COMPARISON_H_
