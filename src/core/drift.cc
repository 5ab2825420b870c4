#include "core/drift.h"

#include <cmath>
#include <utility>

namespace lsbench {

DriftTrajectoryReport MeasureDriftTrajectory(const RunSpec& spec) {
  DriftTrajectoryReport report;
  report.declared = spec.drift.declared;
  report.tolerance = spec.drift.declared ? spec.drift.tolerance : 0.0;
  report.from_baseline.resize(spec.phases.size());
  if (spec.phases.size() < 2 || spec.datasets.empty()) return report;

  DriftMeterOptions options;
  if (spec.drift.declared) {
    options.sample_ops = spec.drift.sample_ops;
    options.seed = spec.drift.seed;
  }
  const DriftMeter meter(options);

  auto dataset_for = [&](const PhaseSpec& phase) -> const Dataset& {
    const size_t idx = static_cast<size_t>(phase.dataset_index);
    return spec.datasets[idx < spec.datasets.size() ? idx : 0];
  };

  // Each phase is sampled once and reused for both of its transitions and
  // for its distance from the baseline.
  const PhaseDistributionSample base =
      meter.SamplePhase(dataset_for(spec.phases[0]), spec.phases[0]);
  PhaseDistributionSample prev = base;
  for (size_t i = 1; i < spec.phases.size(); ++i) {
    PhaseDistributionSample cur =
        meter.SamplePhase(dataset_for(spec.phases[i]), spec.phases[i]);
    DriftTransitionReport t;
    t.from_phase = spec.phases[i - 1].name;
    t.to_phase = spec.phases[i].name;
    t.components = meter.Measure(prev, cur);
    report.from_baseline[i] = meter.Measure(base, cur);
    if (spec.drift.declared && i - 1 < spec.drift.trajectory.size()) {
      t.declared = spec.drift.trajectory[i - 1];
      t.within_tolerance =
          std::fabs(t.components.factor - t.declared) <= spec.drift.tolerance;
    }
    report.transitions.push_back(std::move(t));
    prev = std::move(cur);
  }
  return report;
}

}  // namespace lsbench
