#include "core/specialization.h"

#include <algorithm>

#include "util/assert.h"

namespace lsbench {

SpecializationReport BuildSpecializationReport(
    const RunSpec& spec, const RunResult& result,
    const DriftTrajectoryReport& drift) {
  LSBENCH_ASSERT(drift.from_baseline.size() == spec.phases.size());
  SpecializationReport report;
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    const PhaseSpec& phase = spec.phases[i];
    SpecializationEntry entry;
    entry.phase = static_cast<int32_t>(i);
    entry.phase_name = phase.name.empty()
                           ? "phase" + std::to_string(i)
                           : phase.name;
    entry.holdout = phase.holdout;
    entry.drift = drift.from_baseline[i];
    if (i < result.metrics.phases.size()) {
      entry.throughput_box = result.metrics.phases[i].throughput_box;
      entry.mean_throughput = result.metrics.phases[i].mean_throughput;
    }
    report.entries.push_back(std::move(entry));
  }

  std::stable_sort(report.entries.begin(), report.entries.end(),
                   [](const SpecializationEntry& a,
                      const SpecializationEntry& b) {
                     return a.drift.factor < b.drift.factor;
                   });
  return report;
}

}  // namespace lsbench
