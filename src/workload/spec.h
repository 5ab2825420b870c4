#ifndef LSBENCH_WORKLOAD_SPEC_H_
#define LSBENCH_WORKLOAD_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "workload/access_distribution.h"
#include "workload/arrival.h"
#include "workload/operation.h"

namespace lsbench {

class OperationTrace;

/// How a phase takes over from its predecessor (§V-B: "a workload can slowly
/// transition to another or transition abruptly").
enum class TransitionKind {
  kAbrupt,  ///< Next phase starts at full intensity immediately.
  kLinear,  ///< Mixing probability ramps linearly over the transition ops.
  kCosine,  ///< Smooth ease-in/ease-out ramp.
};

std::string TransitionKindToString(TransitionKind kind);

/// Fraction of operations drawn from the *new* phase, given transition
/// progress in [0, 1].
double TransitionMixFraction(TransitionKind kind, double progress);

/// One benchmark phase: a (workload, data distribution) combination plus
/// how it is entered. The run spec (core/) sequences these.
struct PhaseSpec {
  std::string name;
  /// Index into the run's dataset list — the data distribution this phase
  /// queries (and drifts toward, for inserts).
  int dataset_index = 0;
  OperationMix mix;
  AccessPattern access = AccessPattern::kZipfian;
  double access_param = 0.0;  ///< Pattern-specific (theta / hot fraction).
  /// Second pattern-specific parameter: for hotspot, the hot region's start
  /// as a fraction of the rank space — the "hotspot location" knob the drift
  /// synthesizer moves between phases. 0 (the default) keeps the hot region
  /// at the low ranks, matching historical behaviour bit-for-bit.
  double access_param2 = 0.0;
  ArrivalPattern arrival = ArrivalPattern::kClosedLoop;
  double arrival_rate_qps = 0.0;
  /// Diurnal sinusoid shape (ignored by other arrival patterns).
  double arrival_amplitude = 0.8;
  double arrival_period_seconds = 20.0;
  uint64_t num_operations = 10000;
  /// Blend-in from the previous phase (ignored for the first phase).
  TransitionKind transition_in = TransitionKind::kAbrupt;
  uint64_t transition_operations = 0;
  /// Hold-out phases are out-of-sample: the driver never exposes them to
  /// the SUT for training and refuses to run them twice (§V-A).
  bool holdout = false;
  uint32_t scan_length = 100;
  /// Width of kRangeCount predicates as a fraction of the key domain.
  double range_selectivity = 0.001;
  /// Element count of kBatchGet / kBatchPut ops. `1` degrades batch draws
  /// to their scalar equivalents (kGet / kUpdate) with identical RNG
  /// consumption, so a batch_size=1 run is bit-identical to a scalar run.
  uint32_t batch_size = 64;
  /// Recorded trace phase. When set, the phase issues the trace's entries
  /// in order instead of drawing from a generator: `mix`, `access*`,
  /// `scan_length`, `range_selectivity` and `batch_*` are ignored, while
  /// `dataset_index` still selects the phase's dataset, and arrivals, hold-out
  /// and every driver feature apply as for a generated phase. Requires
  /// `num_operations == trace->size()` and `transition_operations == 0`,
  /// and the next phase cannot blend in from it (RunSpec::Validate).
  std::shared_ptr<const OperationTrace> trace;
};

}  // namespace lsbench

#endif  // LSBENCH_WORKLOAD_SPEC_H_
