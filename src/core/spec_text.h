#ifndef LSBENCH_CORE_SPEC_TEXT_H_
#define LSBENCH_CORE_SPEC_TEXT_H_

#include <string>

#include "core/run_spec.h"
#include "util/status.h"

namespace lsbench {

/// Parses the LSBench textual spec format into a RunSpec (datasets are
/// generated eagerly from their described distributions). The format is a
/// line-based INI dialect:
///
/// ```
/// # top-level keys before any section
/// name = demo
/// seed = 42
/// interval_ms = 1000
/// offline_training = true
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
/// arrival = closed          # closed|poisson|diurnal|bursty
/// arrival_qps = 10000
/// transition = linear       # abrupt|linear|cosine
/// transition_ops = 5000
/// holdout = false
/// scan_length = 100
/// range_selectivity = 0.001
/// ```
///
/// Fault-injection and resilience blocks (all optional):
///
/// ```
/// fault_seed = 77            # top-level: seeds the injector's RNG
/// fault_load_failures = 0    # first N Load calls fail with an I/O error
///
/// [faults]                   # one section per fault window
/// seed = 77                  # plan-level alternatives to the fault_*
/// load_failures = 0          # top-level keys (usable in any window)
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
/// seed = 7                   # DriftMeter sampling seed
/// ```
///
/// Dataset kind parameters: gaussian(param1=mean, param2=stddev),
/// lognormal(param1=mu, param2=sigma), pareto(param1=alpha),
/// clustered(param1=num_clusters, param2=spread); uniform and emails take
/// none. Unknown keys are rejected (typo safety).
Result<RunSpec> ParseRunSpecText(const std::string& text);

/// Renders a spec's fault-injection and resilience configuration back into
/// spec text (the `fault_*` top-level keys plus `[faults]` / `[resilience]`
/// sections). parse -> render -> parse is lossless for these blocks; note
/// durations are emitted in whole microseconds, matching what the parser
/// accepts. Returns "" when the spec has no faults and default resilience.
std::string RenderResilienceText(const RunSpec& spec);

/// Renders a complete RunSpec back into parseable spec text. Requires
/// generation provenance (`dataset_sources`, filled by ParseRunSpecText);
/// programmatically built specs without it get FailedPrecondition, as do
/// specs with trace phases (the text format has no trace key). For any
/// spec that came from ParseRunSpecText, parse → render → parse yields a
/// spec with the same StructuralHash and identical dataset keys, and
/// render is a fixpoint (render(parse(render(s))) == render(s)) — the
/// round-trip property the spec robustness tests pin.
Result<std::string> RenderRunSpecText(const RunSpec& spec);

}  // namespace lsbench

#endif  // LSBENCH_CORE_SPEC_TEXT_H_
