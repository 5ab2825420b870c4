#ifndef LSBENCH_CORE_DRIFT_H_
#define LSBENCH_CORE_DRIFT_H_

#include <string>
#include <vector>

#include "core/run_spec.h"
#include "stats/drift.h"

namespace lsbench {

/// One phase transition's measured drift, paired with what the spec's
/// [drift] section declared for it (if anything).
struct DriftTransitionReport {
  std::string from_phase;
  std::string to_phase;
  DriftComponents components;
  /// Declared target from the spec's trajectory; negative when the spec
  /// declares no drift section.
  double declared = -1.0;
  /// |measured - declared| <= tolerance. Vacuously true when undeclared.
  bool within_tolerance = true;
};

/// The full per-transition drift trajectory of a run spec.
struct DriftTrajectoryReport {
  bool declared = false;   ///< Spec carried a [drift] section.
  double tolerance = 0.0;  ///< Bound used for the verdicts (0 if undeclared).
  std::vector<DriftTransitionReport> transitions;
  /// One entry per phase: its drift against phase 0, whose factor is Fig.
  /// 1a's dissimilarity Φ. Phase 0's entry is the unmeasured default.
  std::vector<DriftComponents> from_baseline;

  bool AllWithinTolerance() const {
    for (const DriftTransitionReport& t : transitions) {
      if (!t.within_tolerance) return false;
    }
    return true;
  }
};

/// Measures the drift factor of every phase transition in `spec`, and of
/// every phase against phase 0, with a DriftMeter configured from the
/// spec's [drift] section (defaults when undeclared), and checks each
/// transition against the declared trajectory. Each phase is sampled once; a
/// single-phase spec samples nothing. Pure offline measurement: samples
/// throwaway generators, never touches a live run. Deterministic for a given
/// spec.
DriftTrajectoryReport MeasureDriftTrajectory(const RunSpec& spec);

}  // namespace lsbench

#endif  // LSBENCH_CORE_DRIFT_H_
