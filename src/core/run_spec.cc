#include "core/run_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <memory>
#include <utility>

#include "data/distribution.h"
#include "workload/trace.h"

namespace lsbench {

namespace {

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashDouble(double d) {
  // Bit-cast; NaNs are not expected in specs.
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) h = MixHash(h, static_cast<uint8_t>(c));
  return h;
}

/// Bytes of keys one spec's datasets may hold together. Specs are
/// untrusted input, so a mangled num_keys must fail before it allocates;
/// 256 MiB fits the 14M-key (112 MB) DRAM-resident benchmark dataset.
constexpr uint64_t kMaxSpecDatasetBytes = uint64_t{256} << 20;

/// How a dataset kind reads one of param1 and param2.
struct DatasetParam {
  const char* meaning = nullptr;  ///< Null: the kind takes no such parameter.
  bool may_be_negative = false;
};

/// `value`, or the parameter's default when it is 0.
double OrDefault(double value, double fallback) {
  return value > 0 ? value : fallback;
}

/// One dataset kind: its spec name, its two parameters, and the
/// distribution BuildDatasets samples (null: the email generator).
struct DatasetKind {
  const char* name;
  DatasetParam params[2];
  std::unique_ptr<UnitDistribution> (*make)(const DatasetSourceSpec&);
};

const DatasetKind kDatasetKinds[] = {
    {"uniform", {}, [](const DatasetSourceSpec&) { return MakeUniform(); }},
    {"gaussian", {{"mean"}, {"stddev"}},
     [](const DatasetSourceSpec& d) {
       return MakeGaussian(OrDefault(d.param1, 0.5), OrDefault(d.param2, 0.1));
     }},
    {"lognormal", {{"mu", true}, {"sigma"}},
     [](const DatasetSourceSpec& d) {
       return MakeLognormal(d.param1, OrDefault(d.param2, 1.0));
     }},
    {"pareto", {{"alpha"}},
     [](const DatasetSourceSpec& d) {
       return MakePareto(OrDefault(d.param1, 1.5));
     }},
    {"clustered", {{"cluster count"}, {"spread"}},
     [](const DatasetSourceSpec& d) {
       return MakeClustered(d.param1 > 0 ? static_cast<int>(d.param1) : 8,
                            OrDefault(d.param2, 0.01), d.seed);
     }},
    {"emails", {}, nullptr},
};

const DatasetKind* FindDatasetKind(const std::string& name) {
  for (const DatasetKind& kind : kDatasetKinds) {
    if (name == kind.name) return &kind;
  }
  return nullptr;
}

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

uint64_t KeyCount(const Dataset& ds) { return ds.keys.size(); }
uint64_t KeyCount(const DatasetSourceSpec& source) { return source.num_keys; }

Status DatasetError(size_t index, const DatasetSourceSpec& source,
                    const std::string& message) {
  return Status::InvalidArgument("dataset " + std::to_string(index) + " (" +
                                 source.kind + "): " + message);
}

}  // namespace

Status CheckDatasetSource(const DatasetSourceSpec& source, int* param) {
  if (param != nullptr) *param = 0;
  const DatasetKind* kind = FindDatasetKind(source.kind);
  if (kind == nullptr) {
    return Status::InvalidArgument("unknown dataset kind: " + source.kind);
  }
  if (source.num_keys == 0) {
    return Status::InvalidArgument("dataset num_keys must be > 0");
  }
  const double values[] = {source.param1, source.param2};
  for (int i = 0; i < 2; ++i) {
    const DatasetParam& p = kind->params[i];
    const std::string key = "param" + std::to_string(i + 1);
    std::string problem;
    if (p.meaning == nullptr && values[i] != 0.0) {
      problem = source.kind + " takes no " + key;
    } else if (p.meaning != nullptr && !p.may_be_negative &&
               !(values[i] >= 0.0)) {
      problem = source.kind + " " + p.meaning + " must be >= 0";
    }
    if (!problem.empty()) {
      if (param != nullptr) *param = i + 1;
      return Status::InvalidArgument(key + ": " + problem + ", got " +
                                     FormatNumber(values[i]));
    }
  }
  // The cluster count is cast to int; the cast is UB for huge doubles.
  if (source.kind == "clustered" && source.param1 > 65536.0) {
    return Status::InvalidArgument(
        "clustered param1 (cluster count) too large: " +
        FormatNumber(source.param1) + " (max 65536)");
  }
  return Status::OK();
}

Result<RunSpec> BuildDatasets(ParsedSpec spec) {
  const std::vector<DatasetSourceSpec>& sources = spec.datasets;
  uint64_t keys_left = kMaxSpecDatasetBytes / sizeof(uint64_t);
  for (size_t i = 0; i < sources.size(); ++i) {
    if (const Status st = CheckDatasetSource(sources[i]); !st.ok()) {
      return DatasetError(i, sources[i], st.message());
    }
    if (sources[i].num_keys > keys_left) {
      return DatasetError(
          i, sources[i],
          "num_keys " + std::to_string(sources[i].num_keys) +
              " takes the spec's keys past the " +
              std::to_string(kMaxSpecDatasetBytes) +
              "-byte bound (256 MiB of 8-byte keys over all its datasets)");
    }
    keys_left -= sources[i].num_keys;
  }

  RunSpec run;
  for (size_t i = 0; i < sources.size(); ++i) {
    const DatasetSourceSpec& source = sources[i];
    const DatasetKind& kind = *FindDatasetKind(source.kind);
    DatasetOptions options;
    options.num_keys = source.num_keys;
    options.seed = source.seed;
    Dataset ds = kind.make == nullptr
                     ? GenerateEmailDataset(source.num_keys, source.seed)
                     : GenerateDataset(*kind.make(source), options);
    if (ds.keys.size() < source.num_keys) {
      return DatasetError(i, source,
                          ds.name + " yields too few distinct keys: " +
                              std::to_string(ds.keys.size()) + " of " +
                              std::to_string(source.num_keys));
    }
    run.datasets.push_back(std::move(ds));
  }
  static_cast<RunPlan&>(run) = std::move(spec);
  return run;
}

std::string OverloadPolicyToString(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kDropNewest:
      return "drop_newest";
    case OverloadPolicy::kDropOldest:
      return "drop_oldest";
    case OverloadPolicy::kSloShed:
      return "slo_shed";
  }
  return "drop_newest";
}

bool operator==(const ServiceSpec& a, const ServiceSpec& b) {
  return a.enabled == b.enabled && a.queue_capacity == b.queue_capacity &&
         a.policy == b.policy && a.slo_p99_nanos == b.slo_p99_nanos &&
         a.max_shed_fraction == b.max_shed_fraction;
}

bool operator==(const DriftSpec& a, const DriftSpec& b) {
  return a.declared == b.declared && a.trajectory == b.trajectory &&
         a.tolerance == b.tolerance && a.sample_ops == b.sample_ops &&
         a.seed == b.seed;
}

bool operator==(const DatasetSourceSpec& a, const DatasetSourceSpec& b) {
  return a.kind == b.kind && a.num_keys == b.num_keys && a.seed == b.seed &&
         a.param1 == b.param1 && a.param2 == b.param2;
}

template <class DatasetT>
Status RunPlan::ValidateWith(const std::vector<DatasetT>& datasets,
                             SpecSite* site) const {
  // Every error names where it lies for the text parser: the section, its
  // ordinal, and the keys whose values are at fault (none when no single
  // key set them).
  auto fail = [site](SpecSection section, size_t index,
                     std::initializer_list<const char*> keys,
                     const std::string& message) {
    if (site != nullptr) *site = SpecSite{section, index, keys};
    return Status::InvalidArgument(message);
  };
  if (datasets.empty()) {
    return fail(SpecSection::kTop, 0, {}, "run spec has no datasets");
  }
  if (phases.empty()) {
    return fail(SpecSection::kTop, 0, {}, "run spec has no phases");
  }
  for (size_t i = 0; i < datasets.size(); ++i) {
    if (KeyCount(datasets[i]) == 0) {
      return fail(SpecSection::kDataset, i, {"num_keys"},
                  "dataset " + std::to_string(i) + " is empty");
    }
  }
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& p = phases[i];
    const std::string phase = "phase " + std::to_string(i);
    auto phase_fail = [&](std::initializer_list<const char*> keys,
                          const std::string& message) {
      return fail(SpecSection::kPhase, i, keys, phase + message);
    };
    if (p.dataset_index < 0 ||
        static_cast<size_t>(p.dataset_index) >= datasets.size()) {
      return phase_fail({"dataset"}, " references missing dataset");
    }
    if (p.trace != nullptr) {
      if (p.trace->empty()) {
        return phase_fail({}, " replays an empty trace");
      }
      if (p.num_operations != p.trace->size()) {
        return phase_fail({"ops"}, " has num_operations " +
                                       std::to_string(p.num_operations) +
                                       " but its trace holds " +
                                       std::to_string(p.trace->size()) +
                                       " operations");
      }
    }
    if (p.transition_operations != 0 &&
        (p.trace != nullptr || (i > 0 && phases[i - 1].trace != nullptr))) {
      return phase_fail({"transition_ops"},
                        " declares a transition, but no transition runs into "
                        "or out of a trace phase");
    }
    if (p.num_operations == 0) {
      return phase_fail({"ops"}, " has zero operations");
    }
    // The generator normalizes the fractions by their total, so a negative
    // or non-finite one would skew or poison every other op's share.
    for (const double fraction :
         {p.mix.get, p.mix.scan, p.mix.insert, p.mix.update, p.mix.del,
          p.mix.range_count, p.mix.batch_get, p.mix.batch_put}) {
      if (!std::isfinite(fraction) || fraction < 0.0) {
        return phase_fail({"mix", "batch_mix"},
                          " has a negative or non-finite mix fraction");
      }
    }
    if (p.mix.Total() <= 0.0) {
      return phase_fail({"mix", "batch_mix"}, " has an empty operation mix");
    }
    if (p.batch_size < 1 || p.batch_size > 4096) {
      return phase_fail({"batch_size"}, " batch_size must be in [1, 4096]");
    }
    if (p.transition_operations > p.num_operations) {
      return phase_fail({"transition_ops"},
                        " transition is longer than the phase itself");
    }
    // Arrival parameters interact (an open-loop pattern needs a rate), so
    // the error names the last of the two keys that choose them.
    if (const Status st = ValidateArrivalParams(
            p.arrival, p.arrival_rate_qps, p.arrival_amplitude,
            p.arrival_period_seconds);
        !st.ok()) {
      return phase_fail({"arrival", "arrival_qps"}, ": " + st.message());
    }
    if (service.enabled && p.arrival == ArrivalPattern::kClosedLoop) {
      return phase_fail(
          {"arrival"},
          " uses closed-loop arrivals but [service] mode is enabled; "
          "admission control needs open-loop intended arrival times");
    }
  }
  if (service.enabled) {
    auto service_fail = [&](std::initializer_list<const char*> keys,
                            const std::string& message) {
      return fail(SpecSection::kService, 0, keys, message);
    };
    if (service.queue_capacity == 0 ||
        service.queue_capacity > (uint32_t{1} << 20)) {
      return service_fail({"queue_capacity"},
                          "service queue_capacity must be in [1, 2^20]");
    }
    if (service.max_shed_fraction < 0.0 || service.max_shed_fraction > 1.0) {
      return service_fail({"max_shed_fraction"},
                          "service max_shed_fraction must be in [0, 1]");
    }
    if (service.slo_p99_nanos < 0) {
      return service_fail({"slo_p99_ms"}, "service slo_p99_ms must be >= 0");
    }
    if (service.policy == OverloadPolicy::kSloShed &&
        service.slo_p99_nanos == 0) {
      return service_fail({"policy", "slo_p99_ms"},
                          "service policy slo_shed requires slo_p99_ms > 0");
    }
  }
  if (interval_nanos <= 0) {
    return fail(SpecSection::kTop, 0, {"interval_ms"},
                "reporting intervals must be positive");
  }
  if (boxplot_sample_nanos <= 0) {
    return fail(SpecSection::kTop, 0, {"boxplot_sample_ms"},
                "reporting intervals must be positive");
  }
  for (size_t i = 0; i < faults.windows.size(); ++i) {
    const FaultWindow& w = faults.windows[i];
    const std::string window = "fault window " + std::to_string(i);
    auto window_fail = [&](std::initializer_list<const char*> keys,
                           const std::string& message) {
      return fail(SpecSection::kFaults, i, keys, window + message);
    };
    if (w.phase >= static_cast<int32_t>(phases.size())) {
      return window_fail({"phase"}, " references missing phase");
    }
    const std::pair<double, const char*> rates[] = {
        {w.execute_fail_rate, "execute_fail_rate"},
        {w.latency_spike_rate, "latency_spike_rate"},
        {w.stall_rate, "stall_rate"}};
    for (const auto& [rate, key] : rates) {
      if (!(rate >= 0.0 && rate <= 1.0)) {  // NaN fails too.
        return window_fail({key}, " has a rate outside [0, 1]");
      }
    }
    if (w.latency_spike_nanos < 0 || w.stall_nanos < 0 ||
        w.train_hang_nanos < 0) {
      return window_fail({}, " has a negative duration");
    }
    if (w.execute_fail_code == StatusCode::kOk) {
      return window_fail({"execute_fail_code"},
                         " cannot inject an OK failure");
    }
  }
  auto resilience_fail = [&](std::initializer_list<const char*> keys,
                             const std::string& message) {
    return fail(SpecSection::kResilience, 0, keys, message);
  };
  if (resilience.op_timeout_nanos < 0 ||
      resilience.backoff_initial_nanos < 0 ||
      resilience.backoff_max_nanos < 0 ||
      resilience.breaker_cooldown_nanos < 0) {
    return resilience_fail({}, "resilience durations must be >= 0");
  }
  // A unit's retry count is a uint16_t (ExecOutcome, OpEvent); a larger
  // bound would never stop the retry loop.
  if (resilience.max_retries > std::numeric_limits<uint16_t>::max()) {
    return resilience_fail({"max_retries"},
                           "resilience max_retries must be <= 65535");
  }
  if (resilience.backoff_multiplier < 1.0) {
    return resilience_fail({"backoff_multiplier"},
                           "backoff multiplier must be >= 1");
  }
  if (resilience.backoff_jitter < 0.0 || resilience.backoff_jitter >= 1.0) {
    return resilience_fail({"backoff_jitter"},
                           "backoff jitter must be in [0, 1)");
  }
  if (resilience.breaker_enabled) {
    if (resilience.breaker_window_ops == 0) {
      return resilience_fail({"breaker_window_ops"},
                             "breaker window must be non-empty");
    }
    if (resilience.breaker_failure_threshold <= 0.0 ||
        resilience.breaker_failure_threshold > 1.0) {
      return resilience_fail({"breaker_threshold"},
                             "breaker threshold must be in (0, 1]");
    }
  }
  if (execution.workers == 0 || execution.workers > 1024) {
    return fail(SpecSection::kExecution, 0, {"workers"},
                "execution workers must be in [1, 1024]");
  }
  if (drift.declared) {
    auto drift_fail = [&](std::initializer_list<const char*> keys,
                          const std::string& message) {
      return fail(SpecSection::kDrift, 0, keys, message);
    };
    if (drift.trajectory.size() + 1 != phases.size()) {
      return drift_fail(
          {"trajectory"},
          "drift trajectory must declare one factor per phase transition (" +
              std::to_string(phases.size() - 1) + " expected, " +
              std::to_string(drift.trajectory.size()) + " declared)");
    }
    for (size_t i = 0; i < drift.trajectory.size(); ++i) {
      if (!(drift.trajectory[i] >= 0.0 && drift.trajectory[i] <= 1.0)) {
        return drift_fail({"trajectory"}, "drift trajectory entry " +
                                              std::to_string(i) +
                                              " outside [0, 1]");
      }
    }
    if (!(drift.tolerance > 0.0 && drift.tolerance <= 1.0)) {
      return drift_fail({"tolerance"}, "drift tolerance must be in (0, 1]");
    }
    if (drift.sample_ops == 0) {
      return drift_fail({"sample_ops"}, "drift sample_ops must be positive");
    }
  }
  return Status::OK();
}

Status ParsedSpec::Validate(SpecSite* site) const {
  return ValidateWith(datasets, site);
}
Status RunSpec::Validate() const { return ValidateWith(datasets, nullptr); }

bool RunPlan::HasHoldout() const {
  return std::any_of(phases.begin(), phases.end(),
                     [](const PhaseSpec& p) { return p.holdout; });
}

uint64_t RunSpec::StructuralHash() const {
  uint64_t h = HashString(name);
  h = MixHash(h, seed);
  for (const Dataset& ds : datasets) {
    h = MixHash(h, HashString(ds.name));
    h = MixHash(h, ds.keys.size());
    h = MixHash(h, ds.seed);
    h = MixHash(h, ds.domain_max);
  }
  for (const PhaseSpec& p : phases) {
    h = MixHash(h, HashString(p.name));
    h = MixHash(h, static_cast<uint64_t>(p.dataset_index));
    h = MixHash(h, HashDouble(p.mix.get));
    h = MixHash(h, HashDouble(p.mix.scan));
    h = MixHash(h, HashDouble(p.mix.insert));
    h = MixHash(h, HashDouble(p.mix.update));
    h = MixHash(h, HashDouble(p.mix.del));
    h = MixHash(h, HashDouble(p.mix.range_count));
    h = MixHash(h, HashDouble(p.mix.batch_get));
    h = MixHash(h, HashDouble(p.mix.batch_put));
    h = MixHash(h, static_cast<uint64_t>(p.access));
    h = MixHash(h, HashDouble(p.access_param));
    h = MixHash(h, HashDouble(p.access_param2));
    h = MixHash(h, static_cast<uint64_t>(p.arrival));
    h = MixHash(h, HashDouble(p.arrival_rate_qps));
    h = MixHash(h, HashDouble(p.arrival_amplitude));
    h = MixHash(h, HashDouble(p.arrival_period_seconds));
    h = MixHash(h, p.num_operations);
    h = MixHash(h, static_cast<uint64_t>(p.transition_in));
    h = MixHash(h, p.transition_operations);
    h = MixHash(h, p.holdout ? 1 : 0);
    h = MixHash(h, p.scan_length);
    h = MixHash(h, HashDouble(p.range_selectivity));
    h = MixHash(h, p.batch_size);
    if (p.trace != nullptr) {
      h = MixHash(h, p.trace->size());
      for (const Operation& op : p.trace->operations()) {
        h = MixHash(h, static_cast<uint64_t>(op.type));
        h = MixHash(h, op.key);
        h = MixHash(h, op.range_end);
        h = MixHash(h, op.scan_length);
        h = MixHash(h, op.value);
      }
    }
  }
  h = MixHash(h, faults.seed);
  h = MixHash(h, faults.fail_load ? 1 : 0);
  for (const FaultWindow& w : faults.windows) {
    h = MixHash(h, static_cast<uint64_t>(static_cast<int64_t>(w.phase)));
    h = MixHash(h, HashDouble(w.execute_fail_rate));
    h = MixHash(h, static_cast<uint64_t>(w.execute_fail_code));
    h = MixHash(h, HashDouble(w.latency_spike_rate));
    h = MixHash(h, static_cast<uint64_t>(w.latency_spike_nanos));
    h = MixHash(h, HashDouble(w.stall_rate));
    h = MixHash(h, static_cast<uint64_t>(w.stall_nanos));
    h = MixHash(h, w.fail_train ? 1 : 0);
    h = MixHash(h, static_cast<uint64_t>(w.train_hang_nanos));
  }
  h = MixHash(h, static_cast<uint64_t>(resilience.op_timeout_nanos));
  h = MixHash(h, resilience.max_retries);
  h = MixHash(h, static_cast<uint64_t>(resilience.backoff_initial_nanos));
  h = MixHash(h, HashDouble(resilience.backoff_multiplier));
  h = MixHash(h, static_cast<uint64_t>(resilience.backoff_max_nanos));
  h = MixHash(h, HashDouble(resilience.backoff_jitter));
  h = MixHash(h, resilience.breaker_enabled ? 1 : 0);
  h = MixHash(h, resilience.breaker_window_ops);
  h = MixHash(h, HashDouble(resilience.breaker_failure_threshold));
  h = MixHash(h, static_cast<uint64_t>(resilience.breaker_cooldown_nanos));
  h = MixHash(h, resilience.breaker_half_open_probes);
  h = MixHash(h, service.enabled ? 1 : 0);
  h = MixHash(h, service.queue_capacity);
  h = MixHash(h, static_cast<uint64_t>(service.policy));
  h = MixHash(h, static_cast<uint64_t>(service.slo_p99_nanos));
  h = MixHash(h, HashDouble(service.max_shed_fraction));
  h = MixHash(h, execution.workers);
  return h;
}

}  // namespace lsbench
