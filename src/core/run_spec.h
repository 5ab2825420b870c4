#ifndef LSBENCH_CORE_RUN_SPEC_H_
#define LSBENCH_CORE_RUN_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/resilience.h"
#include "data/dataset.h"
#include "obs/observability.h"
#include "sut/fault_plan.h"
#include "util/status.h"
#include "workload/spec.h"

namespace lsbench {

/// Service-level-agreement settings for the SLA-band metric (Fig. 1c).
struct SlaSpec {
  /// Fixed threshold; 0 selects calibration (`auto_percentile` of the
  /// first phase's latencies becomes the threshold, scaled by
  /// `auto_margin`). The paper recommends deriving the threshold from a
  /// baseline system's latency statistics.
  int64_t threshold_nanos = 0;
  double auto_percentile = 0.99;
  double auto_margin = 2.0;
};

/// What the admission queue does with an arriving operation once the queue
/// is full (and, for the SLO-aware policy, once the response-time target is
/// predicted to be missed).
enum class OverloadPolicy {
  kDropNewest,  ///< Shed the arriving operation.
  kDropOldest,  ///< Shed the head of the queue, admit the arrival.
  /// Shed arrivals predicted to miss `slo_p99_nanos` (queue-delay model,
  /// tightened while the circuit breaker is degraded), within the
  /// `max_shed_fraction` budget; falls back to drop-newest when full.
  kSloShed,
};

std::string OverloadPolicyToString(OverloadPolicy policy);

/// Open-loop service mode (`[service]` section): a bounded admission queue
/// in front of the resilient executor, with an overload policy and per-run
/// SLO targets. Disabled by default — the driver then paces inline exactly
/// as before. When enabled, every phase must use an open-loop arrival
/// process (admission decisions need intended arrival times).
struct ServiceSpec {
  bool enabled = false;
  /// Bounded admission-queue capacity, per worker. Overload never queues
  /// past this depth; the policy decides what to shed instead.
  uint32_t queue_capacity = 256;
  OverloadPolicy policy = OverloadPolicy::kDropNewest;
  /// Response-time target (intended arrival -> completion). Drives the
  /// SLO-aware shedder and the report's met/violated verdict. 0 = unset.
  int64_t slo_p99_nanos = 0;
  /// Budget for *predictive* sheds as a fraction of offered load, and the
  /// bound the report checks the realized shed fraction against. Forced
  /// full-queue sheds are exempt (the queue bound always holds).
  double max_shed_fraction = 1.0;
};

bool operator==(const ServiceSpec& a, const ServiceSpec& b);

/// Declared drift trajectory (`[drift]` section): the spec author's claim
/// about how far each phase transition moves the workload distribution,
/// verified against the DriftMeter by the scenario-matrix sweep. Purely an
/// annotation — it never changes what the run executes, so (like
/// observability) it is excluded from StructuralHash.
struct DriftSpec {
  bool declared = false;
  /// Intended drift factor per transition; length must be phases.size() - 1
  /// when declared. Values in [0, 1].
  std::vector<double> trajectory;
  /// |measured - declared| bound the sweep enforces per transition.
  double tolerance = 0.15;
  /// DriftMeter sampling budget and seed (see DriftMeterOptions).
  uint64_t sample_ops = 4096;
  uint64_t seed = 7;
};

bool operator==(const DriftSpec& a, const DriftSpec& b);

/// How the driver fans the operation stream out (`[execution]` section).
/// `workers = 1` is the serial staged pipeline and is bit-identical to the
/// historical monolithic driver; `workers = N` splits every phase's
/// operations across N workers, each with its own forked RNG stream and
/// event shard, merged deterministically by (timestamp, worker, seq).
struct ExecutionSpec {
  uint32_t workers = 1;
};

/// The description of one dataset: a `[dataset]` section of spec text.
/// ParseRunSpecText fills and checks these; BuildDatasets generates the
/// Dataset each one describes. Parameters by kind, 0 selecting the kind's
/// default: gaussian(param1 = mean 0.5, param2 = stddev 0.1),
/// lognormal(param1 = mu 0, param2 = sigma 1), pareto(param1 = alpha 1.5),
/// clustered(param1 = cluster count 8, param2 = spread 0.01); uniform and
/// emails take none. Only lognormal's mu may be negative.
struct DatasetSourceSpec {
  std::string kind = "uniform";
  uint64_t num_keys = 100000;
  uint64_t seed = 42;
  double param1 = 0.0;
  double param2 = 0.0;
};

bool operator==(const DatasetSourceSpec& a, const DatasetSourceSpec& b);

/// Everything about one benchmark run but its datasets: the phase sequence
/// over them, SLA, and reporting granularity. ParsedSpec and RunSpec each
/// add their own `datasets`, so whether the datasets exist is a type.
struct RunPlan {
  std::string name = "unnamed_run";
  std::vector<PhaseSpec> phases;
  SlaSpec sla;
  /// Width of the reporting interval for bands/timelines, in nanoseconds.
  int64_t interval_nanos = 1000000000;  // 1 s, per the paper's example.
  /// Sub-interval used to sample throughput for box plots (Fig. 1a).
  int64_t boxplot_sample_nanos = 100000000;  // 100 ms.
  /// First N queries after a phase change considered by the
  /// adjustment-speed metric (§V-D2).
  uint64_t adjustment_window_ops = 1000;
  /// Run an offline training pass (timed) before execution.
  bool offline_training = true;
  uint64_t seed = 42;
  /// Deterministic fault schedule; an empty plan injects nothing and the
  /// driver runs the SUT unwrapped.
  FaultPlan faults;
  /// Timeout / retry / circuit-breaker policy; disabled by default.
  ResilienceSpec resilience;
  /// Open-loop service mode: admission queue + overload policy + SLO
  /// targets. Disabled by default.
  ServiceSpec service;
  /// Worker fan-out; defaults to the serial pipeline.
  ExecutionSpec execution;
  /// Tracing / profiling / metrics export ([observability] section).
  /// Deliberately excluded from StructuralHash: observing a run must not
  /// change its identity, and a determinism test pins that the op stream
  /// is byte-identical with observability on and off.
  ObservabilitySpec observability;
  /// Declared drift trajectory ([drift] section). Like observability, an
  /// annotation about the run rather than part of it — excluded from
  /// StructuralHash so declaring drift does not change run identity.
  DriftSpec drift;

  /// Whether any phase is a hold-out phase, which runs once per process.
  bool HasHoldout() const;

 protected:
  /// The body of ParsedSpec::Validate and RunSpec::Validate, shared so the
  /// two cannot drift apart; defined in run_spec.cc.
  template <class DatasetT>
  Status ValidateWith(const std::vector<DatasetT>& datasets) const;
};

/// A run as spec text describes it: the plan plus one DatasetSourceSpec per
/// `[dataset]` section, and no keys. ParseRunSpecText returns one, and
/// RenderRunSpecText renders one; BuildDatasets turns it into the RunSpec
/// that BenchmarkDriver::Run accepts.
struct ParsedSpec : RunPlan {
  std::vector<DatasetSourceSpec> datasets;

  /// RunSpec::Validate's checks, against the described datasets.
  Status Validate() const;
};

/// The complete description of one benchmark run: its plan over generated
/// datasets. A RunSpec plus a seed fully determines the operation stream.
struct RunSpec : RunPlan {
  std::vector<Dataset> datasets;

  /// Structural validation: phases reference valid datasets, lengths are
  /// nonzero, datasets are nonempty, trace phases match their trace's
  /// length, and no transition blends into or out of a trace phase.
  Status Validate() const;

  /// Stable hash of the spec's structure — the identity under which the
  /// driver enforces single execution of hold-out phases (§V-A). A trace
  /// phase hashes every trace entry, so two hidden traces are two
  /// identities.
  uint64_t StructuralHash() const;
};

/// Checks that `source` describes a dataset BuildDatasets can generate,
/// without generating it: a known kind, num_keys > 0, no parameter the
/// kind does not take, no negative parameter but lognormal's mu, and at
/// most 65536 clusters. A parameter's error message starts with its key
/// ("param2: ..."); `*param` (when given) is set to that parameter's
/// number, 1 or 2, or to 0 when the error is not about one parameter.
Status CheckDatasetSource(const DatasetSourceSpec& source,
                          int* param = nullptr);

/// Generates the Dataset each of `spec.datasets` describes and returns the
/// run: the only code that turns a DatasetSourceSpec into a Dataset. Every
/// source is checked, and the keys of all of them together are bounded to
/// 256 MiB (2^25 8-byte keys), before anything is generated, so a rejected
/// spec allocates no keys. A source whose distribution (or, for emails,
/// whose ~4k distinct 8-byte prefixes) cannot yield num_keys distinct keys
/// is an error too. Errors name the dataset's ordinal and kind.
Result<RunSpec> BuildDatasets(ParsedSpec spec);

}  // namespace lsbench

#endif  // LSBENCH_CORE_RUN_SPEC_H_
