#ifndef LSBENCH_CORE_SPECIALIZATION_H_
#define LSBENCH_CORE_SPECIALIZATION_H_

#include <string>
#include <vector>

#include "core/drift.h"
#include "core/driver.h"
#include "core/run_spec.h"
#include "stats/descriptive.h"

namespace lsbench {

/// One row of the Fig. 1a specialization chart: a (workload, data
/// distribution) phase with its dissimilarity Φ from the baseline phase and
/// the SUT's throughput distribution there.
struct SpecializationEntry {
  int32_t phase = 0;
  std::string phase_name;
  bool holdout = false;
  /// Drift against the baseline phase; `drift.factor` is Φ (0 = identical,
  /// 1 = maximally different).
  DriftComponents drift;
  BoxPlotSummary throughput_box;
  double mean_throughput = 0.0;
};

/// The Fig. 1a report: entries sorted by ascending Φ (the paper: "it should
/// be sufficient to sort the results by Φ value"). The baseline is phase 0.
struct SpecializationReport {
  std::vector<SpecializationEntry> entries;
};

/// Joins each phase's drift against phase 0 (`drift.from_baseline`, from
/// MeasureDriftTrajectory(spec)) with its throughput in a completed run.
SpecializationReport BuildSpecializationReport(
    const RunSpec& spec, const RunResult& result,
    const DriftTrajectoryReport& drift);

}  // namespace lsbench

#endif  // LSBENCH_CORE_SPECIALIZATION_H_
