#ifndef LSBENCH_CORE_SPEC_TEXT_H_
#define LSBENCH_CORE_SPEC_TEXT_H_

#include <string>

#include "core/run_spec.h"
#include "util/status.h"

namespace lsbench {

/// Parses the LSBench textual spec format into a ParsedSpec. Text becomes a
/// run in two steps, one type each:
///
///   text --ParseRunSpecText--> ParsedSpec --BuildDatasets--> RunSpec
///
/// A ParsedSpec only describes its datasets (one checked DatasetSourceSpec
/// per `[dataset]` section), so parsing allocates no keys however large
/// num_keys is; RenderRunSpecText turns it back into text. BuildDatasets
/// (core/run_spec.h) generates the keys, bounding a spec's keys to 256 MiB
/// in all, and returns the RunSpec that BenchmarkDriver::Run,
/// CompareSystems and MeasureDriftTrajectory take; nothing else accepts a
/// ParsedSpec. LoadRunSpecFile reads, parses and builds in one call. The
/// format is a line-based INI dialect:
///
/// ```
/// # top-level keys before any section
/// name = demo
/// seed = 42
/// interval_ms = 1000
/// boxplot_sample_ms = 100
/// offline_training = true
/// sla_ms = 5                # 0 (the default) calibrates from phase 0
/// sla_auto_percentile = 0.99
/// sla_auto_margin = 2
/// adjustment_window_ops = 1000
///
/// [dataset]                 # one section per dataset, in index order
/// kind = clustered          # uniform|gaussian|lognormal|pareto|clustered|emails
/// num_keys = 50000
/// seed = 7
/// param1 = 5                # kind-specific (see below)
/// param2 = 0.01
///
/// [phase]                   # one section per phase, in execution order
/// name = warm
/// dataset = 0
/// ops = 50000
/// mix = get:0.7,insert:0.3  # get,scan,insert,update,delete,range_count
/// access = zipfian          # uniform|zipfian|hotspot|latest|sequential
/// access_param = 0.99
/// access_param2 = 0         # hotspot: hot region start in [0, 1)
/// arrival = closed          # closed|poisson|diurnal|bursty|constant
/// arrival_qps = 10000       # >= 0; open-loop arrivals need > 0
/// arrival_amplitude = 0.8   # diurnal: in [0, 1)
/// arrival_period_s = 20     # diurnal: > 0
/// transition = linear       # abrupt|linear|cosine
/// transition_ops = 5000
/// holdout = false
/// scan_length = 100
/// range_selectivity = 0.001
/// batch_mix = batch_get:0.5,batch_put:0  # batch op fractions, beside mix
/// batch_size = 64           # elements per batch op, in [1, 4096]
/// ```
///
/// Mix fractions must be >= 0; a phase's fractions are weights and need
/// not sum to 1.
///
/// Fault-injection, resilience, and the other optional blocks:
///
/// ```
/// [faults]                   # one section per fault window
/// seed = 77                  # plan-level: seeds the injector's RNG
/// fail_load = false          # plan-level: true fails the run's one Load
/// phase = -1                 # -1 = every phase; exact match wins
/// execute_fail_rate = 0.01   # P(injected transient Execute failure)
/// execute_fail_code = unavailable  # unavailable|timeout|
///                            # resource_exhausted|io_error|internal
/// latency_spike_rate = 0.001
/// latency_spike_us = 2000
/// stall_rate = 0
/// stall_us = 0
/// fail_train = false
/// train_hang_us = 0
///
/// [resilience]               # driver policy (single section)
/// op_timeout_us = 10000      # per-op budget from intended arrival; 0 = off
/// max_retries = 3
/// backoff_initial_us = 500
/// backoff_multiplier = 2.0
/// backoff_max_us = 100000
/// backoff_jitter = 0.2
/// breaker_enabled = true
/// breaker_window_ops = 200
/// breaker_threshold = 0.5
/// breaker_cooldown_us = 250000
/// breaker_halfopen_probes = 10
///
/// [service]                  # open-loop admission queue (optional)
/// enabled = true             # every phase then needs an open-loop arrival
/// queue_capacity = 256       # per worker, in [1, 2^20]
/// policy = drop_newest       # drop_newest|drop_oldest|slo_shed
/// slo_p99_ms = 0             # response-time target; slo_shed needs > 0
/// max_shed_fraction = 1      # predictive-shed budget, in [0, 1]
///
/// [execution]                # driver fan-out (single section, optional)
/// workers = 4                # concurrent workers, in [1, 1024]; 1 (the
///                            # default) reproduces the serial driver
///
/// [observability]            # tracing / profiling / metrics (optional)
/// trace = false              # record LSBENCH_TRACE_SPAN shards
/// profile = false            # per-phase stage-time breakdown
/// metrics = true             # export the metrics registry snapshot
///
/// [drift]                    # declared drift trajectory (optional)
/// trajectory = 0.0, 0.3, 0.8 # intended drift factor per phase transition
/// tolerance = 0.15           # |measured - declared| bound per transition
/// sample_ops = 4096          # DriftMeter sampling budget per phase
/// seed = 7                   # DriftMeter sampling seed; with sample_ops
///                            # it also sets the sample behind Fig. 1a's
///                            # phi, each phase's factor vs phase 0
/// ```
///
/// Dataset kind parameters: gaussian(param1=mean, param2=stddev),
/// lognormal(param1=mu, param2=sigma), pareto(param1=alpha),
/// clustered(param1=num_clusters <= 65536, param2=spread); uniform and
/// emails take none, so a nonzero one is an error. 0 selects the kind's
/// default (see DatasetSourceSpec), and only mu may be negative. An emails
/// key is an address's first 8 bytes, of which the generator yields only
/// about 4,000 distinct values (4,011 at seed 4, 4,014 at seed 42); a
/// larger num_keys parses but fails to build. Unknown
/// keys are rejected (typo safety). Every error about a line starts with
/// `line N:`: a key error names the key, and an error found when a
/// dataset section closes names the section header's line (an unknown
/// dataset kind, num_keys = 0, too many clusters) or the dataset
/// parameter at fault. The semantic checks of ParsedSpec::Validate run on
/// the whole spec; each of its errors names the line of the key that set
/// the bad value (the last of `arrival` and `arrival_qps` for an open-loop
/// phase without a rate), else the header line of the section at fault,
/// and an error about the whole spec (no phases) names no line. Phase
/// `dataset` indexes are checked against the number of `[dataset]`
/// sections.
Result<ParsedSpec> ParseRunSpecText(const std::string& text);

/// Reads the spec file at `path`, parses it, and generates its datasets
/// (BuildDatasets): a spec ready for BenchmarkDriver::Run. An unreadable
/// file is an IoError; parse and build errors come back as they are.
Result<RunSpec> LoadRunSpecFile(const std::string& path);

/// Renders a ParsedSpec back into parseable spec text. Specs with trace
/// phases get FailedPrecondition (the text format has no trace key). For
/// any spec that came from ParseRunSpecText, parse → render → parse yields
/// the same ParsedSpec, so once built the same StructuralHash and
/// identical dataset keys, and render is a fixpoint
/// (render(parse(render(s))) == render(s)) — the round-trip property the
/// spec robustness tests pin. Durations render in the whole ms/us units
/// the parser accepts; optional sections and keys render only when they
/// differ from their defaults.
Result<std::string> RenderRunSpecText(const ParsedSpec& spec);

}  // namespace lsbench

#endif  // LSBENCH_CORE_SPEC_TEXT_H_
