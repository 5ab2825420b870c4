#include "core/spec_text.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/string_util.h"

namespace lsbench {

namespace {

/// Upper bound on eagerly generated dataset sizes. Specs are untrusted
/// input (the fuzz tests feed mutated bytes straight into the parser); a
/// mangled num_keys must produce an error Status, not a multi-gigabyte
/// allocation inside BuildDataset.
constexpr uint64_t kMaxSpecDatasetKeys = uint64_t{1} << 22;

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t')) ++begin;
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t' ||
                         s[end - 1] == '\r')) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Result<double> ParseDouble(const std::string& value,
                           const std::string& key) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  // strtod happily accepts "inf"/"nan" (and huge exponents overflow to
  // inf); a spec number must be finite or every downstream computation is
  // poisoned.
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
    return Status::InvalidArgument("bad number for '" + key + "': " + value);
  }
  return v;
}

Result<uint64_t> ParseU64(const std::string& value, const std::string& key) {
  // strtoull silently wraps negatives ("-1" parses as 2^64-1) and saturates
  // overflow; require pure digits and check ERANGE explicitly.
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("bad integer for '" + key + "': " + value);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("bad integer for '" + key + "': " + value);
  }
  return static_cast<uint64_t>(v);
}

/// ParseU64 plus a uint32 range check — for keys the spec structs store
/// narrow (workers, retries, scan_length, ...), where a silent truncating
/// cast would accept "4294967297" as 1.
Result<uint32_t> ParseU32(const std::string& value, const std::string& key) {
  const Result<uint64_t> v = ParseU64(value, key);
  if (!v.ok()) return v.status();
  if (v.value() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("value out of range for '" + key +
                                   "': " + value);
  }
  return static_cast<uint32_t>(v.value());
}

/// Parses a duration in coarse units (ms/us) and scales it to nanoseconds,
/// rejecting values whose scaled form overflows int64.
Result<int64_t> ParseScaledNanos(const std::string& value,
                                 const std::string& key, int64_t scale) {
  const Result<uint64_t> v = ParseU64(value, key);
  if (!v.ok()) return v.status();
  const uint64_t limit = static_cast<uint64_t>(
      std::numeric_limits<int64_t>::max() / scale);
  if (v.value() > limit) {
    return Status::InvalidArgument("duration out of range for '" + key +
                                   "': " + value);
  }
  return static_cast<int64_t>(v.value()) * scale;
}

Result<bool> ParseBool(const std::string& value, const std::string& key) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  return Status::InvalidArgument("bad bool for '" + key + "': " + value);
}

Result<int64_t> ParseI64(const std::string& value, const std::string& key) {
  const bool negative = !value.empty() && value.front() == '-';
  const std::string digits = negative ? value.substr(1) : value;
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("bad integer for '" + key + "': " + value);
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("bad integer for '" + key + "': " + value);
  }
  return static_cast<int64_t>(v);
}

Result<StatusCode> ParseFailCode(const std::string& value) {
  if (value == "unavailable") return StatusCode::kUnavailable;
  if (value == "timeout") return StatusCode::kTimeout;
  if (value == "resource_exhausted") return StatusCode::kResourceExhausted;
  if (value == "io_error") return StatusCode::kIoError;
  if (value == "internal") return StatusCode::kInternal;
  return Status::InvalidArgument("unknown fault code: " + value);
}

std::string FailCodeToSpecString(StatusCode code) {
  switch (code) {
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kTimeout:
      return "timeout";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kIoError:
      return "io_error";
    default:
      return "internal";
  }
}

/// Shortest decimal representation that strtod round-trips exactly.
std::string FullDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer a shorter form when it round-trips (keeps specs readable).
  for (int precision = 1; precision <= 16; ++precision) {
    char candidate[64];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, v);
    if (std::strtod(candidate, nullptr) == v) return candidate;
  }
  return buf;
}

/// Accumulated description of one [dataset] section.
struct DatasetDesc {
  std::string kind = "uniform";
  size_t num_keys = 100000;
  uint64_t seed = 42;
  double param1 = 0.0;
  double param2 = 0.0;
};

Result<Dataset> BuildDataset(const DatasetDesc& desc) {
  if (desc.num_keys == 0) {
    return Status::InvalidArgument("dataset num_keys must be > 0");
  }
  if (desc.num_keys > kMaxSpecDatasetKeys) {
    return Status::InvalidArgument(
        "dataset num_keys too large: " + std::to_string(desc.num_keys) +
        " (max " + std::to_string(kMaxSpecDatasetKeys) + ")");
  }
  if (desc.kind == "emails") {
    return GenerateEmailDataset(desc.num_keys, desc.seed);
  }
  DatasetOptions options;
  options.num_keys = desc.num_keys;
  options.seed = desc.seed;
  std::unique_ptr<UnitDistribution> dist;
  if (desc.kind == "uniform") {
    dist = MakeUniform();
  } else if (desc.kind == "gaussian") {
    dist = MakeGaussian(desc.param1 > 0 ? desc.param1 : 0.5,
                        desc.param2 > 0 ? desc.param2 : 0.1);
  } else if (desc.kind == "lognormal") {
    dist = MakeLognormal(desc.param1, desc.param2 > 0 ? desc.param2 : 1.0);
  } else if (desc.kind == "pareto") {
    dist = MakePareto(desc.param1 > 0 ? desc.param1 : 1.5);
  } else if (desc.kind == "clustered") {
    // param1 is a cluster count; the cast to int is UB for huge doubles,
    // so bound it before converting.
    if (desc.param1 > 65536.0) {
      return Status::InvalidArgument("clustered param1 (cluster count) too "
                                     "large");
    }
    dist = MakeClustered(desc.param1 > 0 ? static_cast<int>(desc.param1) : 8,
                         desc.param2 > 0 ? desc.param2 : 0.01, desc.seed);
  } else {
    return Status::InvalidArgument("unknown dataset kind: " + desc.kind);
  }
  return GenerateDataset(*dist, options);
}

Status ParseMix(const std::string& value, OperationMix* mix) {
  // `mix` names only the scalar op classes; batch fractions live in the
  // separate `batch_mix` key. Preserve them so the two keys compose in
  // either file order.
  const double batch_get = mix->batch_get;
  const double batch_put = mix->batch_put;
  *mix = OperationMix();
  mix->get = 0.0;
  mix->batch_get = batch_get;
  mix->batch_put = batch_put;
  for (const std::string& part : Split(value, ',')) {
    const std::vector<std::string> kv = Split(Trim(part), ':');
    if (kv.size() != 2) {
      return Status::InvalidArgument("bad mix component: " + part);
    }
    const Result<double> frac = ParseDouble(Trim(kv[1]), "mix");
    if (!frac.ok()) return frac.status();
    const std::string op = Trim(kv[0]);
    if (op == "get") {
      mix->get = frac.value();
    } else if (op == "scan") {
      mix->scan = frac.value();
    } else if (op == "insert") {
      mix->insert = frac.value();
    } else if (op == "update") {
      mix->update = frac.value();
    } else if (op == "delete") {
      mix->del = frac.value();
    } else if (op == "range_count") {
      mix->range_count = frac.value();
    } else {
      return Status::InvalidArgument("unknown op in mix: " + op);
    }
  }
  return Status::OK();
}

/// Parses the `batch_mix` key: comma-separated `batch_get:frac` /
/// `batch_put:frac` components. Touches only the batch fractions, so it
/// composes with `mix` in either file order.
Status ParseBatchMix(const std::string& value, OperationMix* mix) {
  mix->batch_get = 0.0;
  mix->batch_put = 0.0;
  for (const std::string& part : Split(value, ',')) {
    const std::vector<std::string> kv = Split(Trim(part), ':');
    if (kv.size() != 2) {
      return Status::InvalidArgument("bad batch_mix component: " + part);
    }
    const Result<double> frac = ParseDouble(Trim(kv[1]), "batch_mix");
    if (!frac.ok()) return frac.status();
    if (frac.value() < 0.0) {
      return Status::InvalidArgument("batch_mix fraction must be >= 0, got " +
                                     Trim(kv[1]));
    }
    const std::string op = Trim(kv[0]);
    if (op == "batch_get") {
      mix->batch_get = frac.value();
    } else if (op == "batch_put") {
      mix->batch_put = frac.value();
    } else {
      return Status::InvalidArgument("unknown op in batch_mix: " + op);
    }
  }
  return Status::OK();
}

Result<AccessPattern> ParseAccess(const std::string& value) {
  if (value == "uniform") return AccessPattern::kUniform;
  if (value == "zipfian") return AccessPattern::kZipfian;
  if (value == "hotspot") return AccessPattern::kHotSpot;
  if (value == "latest") return AccessPattern::kLatest;
  if (value == "sequential") return AccessPattern::kSequential;
  return Status::InvalidArgument("unknown access pattern: " + value);
}

Result<ArrivalPattern> ParseArrival(const std::string& value) {
  if (value == "closed") return ArrivalPattern::kClosedLoop;
  if (value == "poisson") return ArrivalPattern::kPoisson;
  if (value == "diurnal") return ArrivalPattern::kDiurnal;
  if (value == "bursty") return ArrivalPattern::kBursty;
  if (value == "constant") return ArrivalPattern::kConstant;
  return Status::InvalidArgument("unknown arrival pattern: " + value);
}

Result<OverloadPolicy> ParseOverloadPolicy(const std::string& value) {
  if (value == "drop_newest") return OverloadPolicy::kDropNewest;
  if (value == "drop_oldest") return OverloadPolicy::kDropOldest;
  if (value == "slo_shed") return OverloadPolicy::kSloShed;
  return Status::InvalidArgument("unknown overload policy: " + value);
}

Result<TransitionKind> ParseTransition(const std::string& value) {
  if (value == "abrupt") return TransitionKind::kAbrupt;
  if (value == "linear") return TransitionKind::kLinear;
  if (value == "cosine") return TransitionKind::kCosine;
  return Status::InvalidArgument("unknown transition kind: " + value);
}

// Spec-token renderers, the exact inverses of the Parse* functions above
// (ToString helpers elsewhere use display names, not spec tokens).

std::string AccessToSpecString(AccessPattern access) {
  switch (access) {
    case AccessPattern::kUniform:
      return "uniform";
    case AccessPattern::kZipfian:
      return "zipfian";
    case AccessPattern::kHotSpot:
      return "hotspot";
    case AccessPattern::kLatest:
      return "latest";
    case AccessPattern::kSequential:
      return "sequential";
  }
  return "uniform";
}

std::string ArrivalToSpecString(ArrivalPattern arrival) {
  switch (arrival) {
    case ArrivalPattern::kClosedLoop:
      return "closed";
    case ArrivalPattern::kPoisson:
      return "poisson";
    case ArrivalPattern::kDiurnal:
      return "diurnal";
    case ArrivalPattern::kBursty:
      return "bursty";
    case ArrivalPattern::kConstant:
      return "constant";
  }
  return "closed";
}

std::string TransitionToSpecString(TransitionKind kind) {
  switch (kind) {
    case TransitionKind::kAbrupt:
      return "abrupt";
    case TransitionKind::kLinear:
      return "linear";
    case TransitionKind::kCosine:
      return "cosine";
  }
  return "abrupt";
}

/// Spec names (run, phase) become comment-stripped, trimmed single lines on
/// reparse; reject the characters the renderer cannot round-trip.
Status CheckRenderableName(const std::string& name, const char* what) {
  if (name.find('#') != std::string::npos ||
      name.find('\n') != std::string::npos ||
      name.find('\r') != std::string::npos) {
    return Status::InvalidArgument(
        std::string(what) + " name contains '#' or a newline and cannot be "
        "rendered as spec text: " + name);
  }
  return Status::OK();
}

}  // namespace

Result<RunSpec> ParseRunSpecText(const std::string& text) {
  RunSpec spec;
  enum class Section {
    kTop,
    kDataset,
    kPhase,
    kFaults,
    kResilience,
    kExecution,
    kObservability,
    kService,
    kDrift
  };
  Section section = Section::kTop;
  DatasetDesc dataset_desc;
  bool dataset_open = false;
  PhaseSpec phase;
  bool phase_open = false;
  size_t phase_line = 0;    // line of the open phase's [phase] header
  size_t arrival_line = 0;  // last arrival / arrival_qps key in that phase
  FaultWindow fault_window;
  bool fault_window_open = false;

  auto close_dataset = [&]() -> Status {
    if (!dataset_open) return Status::OK();
    Result<Dataset> ds = BuildDataset(dataset_desc);
    if (!ds.ok()) return ds.status();
    spec.datasets.push_back(std::move(ds).value());
    // Keep the generation parameters alongside the generated keys so the
    // spec can be rendered back to text (RenderRunSpecText).
    DatasetSourceSpec source;
    source.kind = dataset_desc.kind;
    source.num_keys = dataset_desc.num_keys;
    source.seed = dataset_desc.seed;
    source.param1 = dataset_desc.param1;
    source.param2 = dataset_desc.param2;
    spec.dataset_sources.push_back(std::move(source));
    dataset_desc = DatasetDesc();
    dataset_open = false;
    return Status::OK();
  };
  auto close_phase = [&]() -> Status {
    if (!phase_open) return Status::OK();
    // Arrival parameters interact (an open-loop pattern needs a rate, but
    // keys arrive in any order), so the combined check runs when the phase
    // closes — pointed back at the offending line.
    if (const Status st = ValidateArrivalParams(
            phase.arrival, phase.arrival_rate_qps, phase.arrival_amplitude,
            phase.arrival_period_seconds);
        !st.ok()) {
      const size_t at = arrival_line != 0 ? arrival_line : phase_line;
      return Status::InvalidArgument("line " + std::to_string(at) + ": " +
                                     st.message());
    }
    spec.phases.push_back(phase);
    phase = PhaseSpec();
    phase_open = false;
    arrival_line = 0;
    return Status::OK();
  };
  auto close_fault_window = [&]() -> Status {
    if (!fault_window_open) return Status::OK();
    // An all-default window is a no-op carrier for plan-level keys
    // (seed / load_failures) and is not recorded.
    if (!(fault_window == FaultWindow())) {
      spec.faults.windows.push_back(fault_window);
    }
    fault_window = FaultWindow();
    fault_window_open = false;
    return Status::OK();
  };
  auto close_sections = [&]() -> Status {
    LSBENCH_RETURN_IF_ERROR(close_dataset());
    LSBENCH_RETURN_IF_ERROR(close_phase());
    return close_fault_window();
  };

  size_t line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string line = raw_line;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;

    if (line == "[dataset]") {
      LSBENCH_RETURN_IF_ERROR(close_sections());
      section = Section::kDataset;
      dataset_open = true;
      continue;
    }
    if (line == "[phase]") {
      LSBENCH_RETURN_IF_ERROR(close_sections());
      section = Section::kPhase;
      phase_open = true;
      phase_line = line_no;
      continue;
    }
    if (line == "[faults]") {
      LSBENCH_RETURN_IF_ERROR(close_sections());
      section = Section::kFaults;
      fault_window_open = true;
      continue;
    }
    if (line == "[resilience]") {
      LSBENCH_RETURN_IF_ERROR(close_sections());
      section = Section::kResilience;
      continue;
    }
    if (line == "[execution]") {
      LSBENCH_RETURN_IF_ERROR(close_sections());
      section = Section::kExecution;
      continue;
    }
    if (line == "[observability]") {
      LSBENCH_RETURN_IF_ERROR(close_sections());
      section = Section::kObservability;
      continue;
    }
    if (line == "[service]") {
      LSBENCH_RETURN_IF_ERROR(close_sections());
      section = Section::kService;
      continue;
    }
    if (line == "[drift]") {
      LSBENCH_RETURN_IF_ERROR(close_sections());
      section = Section::kDrift;
      spec.drift.declared = true;
      continue;
    }
    if (line.front() == '[') {
      return Status::InvalidArgument("unknown section at line " +
                                     std::to_string(line_no) + ": " + line);
    }

    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key = value at line " +
                                     std::to_string(line_no));
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));

    switch (section) {
      case Section::kTop: {
        if (key == "name") {
          spec.name = value;
        } else if (key == "seed") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          spec.seed = v.value();
        } else if (key == "interval_ms") {
          const auto v = ParseScaledNanos(value, key, 1000000);
          if (!v.ok()) return v.status();
          spec.interval_nanos = v.value();
        } else if (key == "boxplot_sample_ms") {
          const auto v = ParseScaledNanos(value, key, 1000000);
          if (!v.ok()) return v.status();
          spec.boxplot_sample_nanos = v.value();
        } else if (key == "offline_training") {
          const auto v = ParseBool(value, key);
          if (!v.ok()) return v.status();
          spec.offline_training = v.value();
        } else if (key == "sla_ms") {
          const auto v = ParseScaledNanos(value, key, 1000000);
          if (!v.ok()) return v.status();
          spec.sla.threshold_nanos = v.value();
        } else if (key == "sla_auto_percentile") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          spec.sla.auto_percentile = v.value();
        } else if (key == "sla_auto_margin") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          spec.sla.auto_margin = v.value();
        } else if (key == "adjustment_window_ops") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          spec.adjustment_window_ops = v.value();
        } else if (key == "fault_seed") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          spec.faults.seed = v.value();
        } else if (key == "fault_load_failures") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          spec.faults.load_failures = v.value();
        } else {
          return Status::InvalidArgument("unknown top-level key: " + key);
        }
        break;
      }
      case Section::kDataset: {
        if (key == "kind") {
          dataset_desc.kind = value;
        } else if (key == "num_keys") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          dataset_desc.num_keys = v.value();
        } else if (key == "seed") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          dataset_desc.seed = v.value();
        } else if (key == "param1") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          dataset_desc.param1 = v.value();
        } else if (key == "param2") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          dataset_desc.param2 = v.value();
        } else {
          return Status::InvalidArgument("unknown dataset key: " + key);
        }
        break;
      }
      case Section::kPhase: {
        if (key == "name") {
          phase.name = value;
        } else if (key == "dataset") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          if (v.value() >
              static_cast<uint32_t>(std::numeric_limits<int32_t>::max())) {
            return Status::InvalidArgument("dataset index out of range: " +
                                           value);
          }
          phase.dataset_index = static_cast<int>(v.value());
        } else if (key == "ops") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          phase.num_operations = v.value();
        } else if (key == "mix") {
          LSBENCH_RETURN_IF_ERROR(ParseMix(value, &phase.mix));
        } else if (key == "access") {
          const auto v = ParseAccess(value);
          if (!v.ok()) return v.status();
          phase.access = v.value();
        } else if (key == "access_param") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          phase.access_param = v.value();
        } else if (key == "access_param2") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          phase.access_param2 = v.value();
        } else if (key == "arrival") {
          const auto v = ParseArrival(value);
          if (!v.ok()) return v.status();
          phase.arrival = v.value();
          if (arrival_line == 0) arrival_line = line_no;
        } else if (key == "arrival_qps") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          if (v.value() < 0.0) {
            return Status::InvalidArgument(
                "line " + std::to_string(line_no) +
                ": arrival_qps must be >= 0, got " + value);
          }
          phase.arrival_rate_qps = v.value();
          arrival_line = line_no;
        } else if (key == "arrival_amplitude") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          if (v.value() < 0.0 || v.value() >= 1.0) {
            return Status::InvalidArgument(
                "line " + std::to_string(line_no) +
                ": arrival_amplitude must be in [0, 1), got " + value);
          }
          phase.arrival_amplitude = v.value();
        } else if (key == "arrival_period_s") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          if (v.value() <= 0.0) {
            return Status::InvalidArgument(
                "line " + std::to_string(line_no) +
                ": arrival_period_s must be > 0, got " + value);
          }
          phase.arrival_period_seconds = v.value();
        } else if (key == "transition") {
          const auto v = ParseTransition(value);
          if (!v.ok()) return v.status();
          phase.transition_in = v.value();
        } else if (key == "transition_ops") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          phase.transition_operations = v.value();
        } else if (key == "holdout") {
          const auto v = ParseBool(value, key);
          if (!v.ok()) return v.status();
          phase.holdout = v.value();
        } else if (key == "scan_length") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          phase.scan_length = v.value();
        } else if (key == "range_selectivity") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          phase.range_selectivity = v.value();
        } else if (key == "batch_size") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          if (v.value() < 1 || v.value() > 4096) {
            return Status::InvalidArgument(
                "line " + std::to_string(line_no) +
                ": batch_size must be in [1, 4096], got " + value);
          }
          phase.batch_size = v.value();
        } else if (key == "batch_mix") {
          if (const Status st = ParseBatchMix(value, &phase.mix); !st.ok()) {
            return Status::InvalidArgument("line " +
                                           std::to_string(line_no) + ": " +
                                           st.message());
          }
        } else {
          return Status::InvalidArgument("unknown phase key: " + key);
        }
        break;
      }
      case Section::kFaults: {
        if (key == "seed") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          spec.faults.seed = v.value();
        } else if (key == "load_failures") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          spec.faults.load_failures = v.value();
        } else if (key == "phase") {
          const auto v = ParseI64(value, key);
          if (!v.ok()) return v.status();
          if (v.value() < std::numeric_limits<int32_t>::min() ||
              v.value() > std::numeric_limits<int32_t>::max()) {
            return Status::InvalidArgument("fault phase out of range: " +
                                           value);
          }
          fault_window.phase = static_cast<int32_t>(v.value());
        } else if (key == "execute_fail_rate") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          fault_window.execute_fail_rate = v.value();
        } else if (key == "execute_fail_code") {
          const auto v = ParseFailCode(value);
          if (!v.ok()) return v.status();
          fault_window.execute_fail_code = v.value();
        } else if (key == "latency_spike_rate") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          fault_window.latency_spike_rate = v.value();
        } else if (key == "latency_spike_us") {
          const auto v = ParseScaledNanos(value, key, 1000);
          if (!v.ok()) return v.status();
          fault_window.latency_spike_nanos = v.value();
        } else if (key == "stall_rate") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          fault_window.stall_rate = v.value();
        } else if (key == "stall_us") {
          const auto v = ParseScaledNanos(value, key, 1000);
          if (!v.ok()) return v.status();
          fault_window.stall_nanos = v.value();
        } else if (key == "fail_train") {
          const auto v = ParseBool(value, key);
          if (!v.ok()) return v.status();
          fault_window.fail_train = v.value();
        } else if (key == "train_hang_us") {
          const auto v = ParseScaledNanos(value, key, 1000);
          if (!v.ok()) return v.status();
          fault_window.train_hang_nanos = v.value();
        } else {
          return Status::InvalidArgument("unknown faults key: " + key);
        }
        break;
      }
      case Section::kResilience: {
        ResilienceSpec& r = spec.resilience;
        if (key == "op_timeout_us") {
          const auto v = ParseScaledNanos(value, key, 1000);
          if (!v.ok()) return v.status();
          r.op_timeout_nanos = v.value();
        } else if (key == "max_retries") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          r.max_retries = v.value();
        } else if (key == "backoff_initial_us") {
          const auto v = ParseScaledNanos(value, key, 1000);
          if (!v.ok()) return v.status();
          r.backoff_initial_nanos = v.value();
        } else if (key == "backoff_multiplier") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          r.backoff_multiplier = v.value();
        } else if (key == "backoff_max_us") {
          const auto v = ParseScaledNanos(value, key, 1000);
          if (!v.ok()) return v.status();
          r.backoff_max_nanos = v.value();
        } else if (key == "backoff_jitter") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          r.backoff_jitter = v.value();
        } else if (key == "breaker_enabled") {
          const auto v = ParseBool(value, key);
          if (!v.ok()) return v.status();
          r.breaker_enabled = v.value();
        } else if (key == "breaker_window_ops") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          r.breaker_window_ops = v.value();
        } else if (key == "breaker_threshold") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          r.breaker_failure_threshold = v.value();
        } else if (key == "breaker_cooldown_us") {
          const auto v = ParseScaledNanos(value, key, 1000);
          if (!v.ok()) return v.status();
          r.breaker_cooldown_nanos = v.value();
        } else if (key == "breaker_halfopen_probes") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          r.breaker_half_open_probes = v.value();
        } else {
          return Status::InvalidArgument("unknown resilience key: " + key);
        }
        break;
      }
      case Section::kExecution: {
        if (key == "workers") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          spec.execution.workers = v.value();
        } else {
          return Status::InvalidArgument("unknown execution key: " + key);
        }
        break;
      }
      case Section::kObservability: {
        ObservabilitySpec& o = spec.observability;
        if (key == "trace") {
          const auto v = ParseBool(value, key);
          if (!v.ok()) return v.status();
          o.trace = v.value();
        } else if (key == "profile") {
          const auto v = ParseBool(value, key);
          if (!v.ok()) return v.status();
          o.profile = v.value();
        } else if (key == "metrics") {
          const auto v = ParseBool(value, key);
          if (!v.ok()) return v.status();
          o.metrics = v.value();
        } else {
          return Status::InvalidArgument("unknown observability key: " + key);
        }
        break;
      }
      case Section::kService: {
        ServiceSpec& s = spec.service;
        if (key == "enabled") {
          const auto v = ParseBool(value, key);
          if (!v.ok()) return v.status();
          s.enabled = v.value();
        } else if (key == "queue_capacity") {
          const auto v = ParseU32(value, key);
          if (!v.ok()) return v.status();
          s.queue_capacity = v.value();
        } else if (key == "policy") {
          const auto v = ParseOverloadPolicy(value);
          if (!v.ok()) return v.status();
          s.policy = v.value();
        } else if (key == "slo_p99_ms") {
          const auto v = ParseScaledNanos(value, key, 1000000);
          if (!v.ok()) return v.status();
          s.slo_p99_nanos = v.value();
        } else if (key == "max_shed_fraction") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          s.max_shed_fraction = v.value();
        } else {
          return Status::InvalidArgument("unknown service key: " + key);
        }
        break;
      }
      case Section::kDrift: {
        DriftSpec& d = spec.drift;
        if (key == "trajectory") {
          d.trajectory.clear();
          if (!value.empty()) {
            for (const std::string& part : Split(value, ',')) {
              const auto v = ParseDouble(Trim(part), key);
              if (!v.ok()) return v.status();
              d.trajectory.push_back(v.value());
            }
          }
        } else if (key == "tolerance") {
          const auto v = ParseDouble(value, key);
          if (!v.ok()) return v.status();
          d.tolerance = v.value();
        } else if (key == "sample_ops") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          d.sample_ops = v.value();
        } else if (key == "seed") {
          const auto v = ParseU64(value, key);
          if (!v.ok()) return v.status();
          d.seed = v.value();
        } else {
          return Status::InvalidArgument("unknown drift key: " + key);
        }
        break;
      }
    }
  }
  LSBENCH_RETURN_IF_ERROR(close_sections());
  LSBENCH_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

std::string RenderResilienceText(const RunSpec& spec) {
  std::string out;
  const FaultPlan defaults_plan;
  const ResilienceSpec defaults_res;
  auto emit = [&](const std::string& line) {
    out += line;
    out += '\n';
  };
  auto emit_u64 = [&](const char* key, uint64_t v) {
    emit(std::string(key) + " = " + std::to_string(v));
  };
  auto emit_us = [&](const char* key, int64_t nanos) {
    emit(std::string(key) + " = " + std::to_string(nanos / 1000));
  };
  auto emit_dbl = [&](const char* key, double v) {
    emit(std::string(key) + " = " + FullDouble(v));
  };
  auto emit_bool = [&](const char* key, bool v) {
    emit(std::string(key) + std::string(v ? " = true" : " = false"));
  };

  if (!spec.faults.Empty() || spec.faults.seed != defaults_plan.seed) {
    // Plan-level keys ride in the first [faults] section so the rendered
    // text can be appended to any spec; an all-default carrier section is
    // dropped again on parse.
    bool plan_keys_pending = spec.faults.seed != defaults_plan.seed ||
                             spec.faults.load_failures != 0;
    auto emit_plan_keys = [&]() {
      if (!plan_keys_pending) return;
      if (spec.faults.seed != defaults_plan.seed) {
        emit_u64("seed", spec.faults.seed);
      }
      if (spec.faults.load_failures != 0) {
        emit_u64("load_failures", spec.faults.load_failures);
      }
      plan_keys_pending = false;
    };
    for (const FaultWindow& w : spec.faults.windows) {
      if (!out.empty()) emit("");
      emit("[faults]");
      emit_plan_keys();
      emit("phase = " + std::to_string(w.phase));
      emit_dbl("execute_fail_rate", w.execute_fail_rate);
      emit("execute_fail_code = " +
           FailCodeToSpecString(w.execute_fail_code));
      emit_dbl("latency_spike_rate", w.latency_spike_rate);
      emit_us("latency_spike_us", w.latency_spike_nanos);
      emit_dbl("stall_rate", w.stall_rate);
      emit_us("stall_us", w.stall_nanos);
      emit_bool("fail_train", w.fail_train);
      emit_us("train_hang_us", w.train_hang_nanos);
    }
    if (plan_keys_pending) {
      emit("[faults]");
      emit_plan_keys();
    }
  }

  if (!(spec.resilience == defaults_res)) {
    if (!out.empty()) emit("");
    emit("[resilience]");
    const ResilienceSpec& r = spec.resilience;
    emit_us("op_timeout_us", r.op_timeout_nanos);
    emit_u64("max_retries", r.max_retries);
    emit_us("backoff_initial_us", r.backoff_initial_nanos);
    emit_dbl("backoff_multiplier", r.backoff_multiplier);
    emit_us("backoff_max_us", r.backoff_max_nanos);
    emit_dbl("backoff_jitter", r.backoff_jitter);
    emit_bool("breaker_enabled", r.breaker_enabled);
    emit_u64("breaker_window_ops", r.breaker_window_ops);
    emit_dbl("breaker_threshold", r.breaker_failure_threshold);
    emit_us("breaker_cooldown_us", r.breaker_cooldown_nanos);
    emit_u64("breaker_halfopen_probes", r.breaker_half_open_probes);
  }
  return out;
}

Result<std::string> RenderRunSpecText(const RunSpec& spec) {
  if (spec.dataset_sources.size() != spec.datasets.size()) {
    return Status::FailedPrecondition(
        "spec has no dataset generation provenance (dataset_sources); only "
        "specs parsed from text can be rendered back");
  }
  LSBENCH_RETURN_IF_ERROR(CheckRenderableName(spec.name, "run"));
  for (const PhaseSpec& phase : spec.phases) {
    if (phase.trace != nullptr) {
      return Status::FailedPrecondition(
          "phase '" + phase.name +
          "' replays a trace; the text format has no trace key");
    }
    LSBENCH_RETURN_IF_ERROR(CheckRenderableName(phase.name, "phase"));
  }

  std::string out;
  auto emit = [&](const std::string& line) {
    out += line;
    out += '\n';
  };
  auto emit_u64 = [&](const char* key, uint64_t v) {
    emit(std::string(key) + " = " + std::to_string(v));
  };
  auto emit_dbl = [&](const char* key, double v) {
    emit(std::string(key) + " = " + FullDouble(v));
  };
  auto emit_bool = [&](const char* key, bool v) {
    emit(std::string(key) + std::string(v ? " = true" : " = false"));
  };
  auto emit_str = [&](const char* key, const std::string& v) {
    emit(std::string(key) + " = " + v);
  };

  emit_str("name", spec.name);
  emit_u64("seed", spec.seed);
  emit_u64("interval_ms", static_cast<uint64_t>(spec.interval_nanos /
                                                1000000));
  emit_u64("boxplot_sample_ms",
           static_cast<uint64_t>(spec.boxplot_sample_nanos / 1000000));
  emit_bool("offline_training", spec.offline_training);
  if (spec.sla.threshold_nanos != 0) {
    emit_u64("sla_ms",
             static_cast<uint64_t>(spec.sla.threshold_nanos / 1000000));
  }
  emit_dbl("sla_auto_percentile", spec.sla.auto_percentile);
  emit_dbl("sla_auto_margin", spec.sla.auto_margin);
  emit_u64("adjustment_window_ops", spec.adjustment_window_ops);

  for (const DatasetSourceSpec& source : spec.dataset_sources) {
    emit("");
    emit("[dataset]");
    emit_str("kind", source.kind);
    emit_u64("num_keys", source.num_keys);
    emit_u64("seed", source.seed);
    emit_dbl("param1", source.param1);
    emit_dbl("param2", source.param2);
  }

  for (const PhaseSpec& phase : spec.phases) {
    emit("");
    emit("[phase]");
    emit_str("name", phase.name);
    emit_u64("dataset", static_cast<uint64_t>(phase.dataset_index));
    emit_u64("ops", phase.num_operations);
    emit_str("mix", "get:" + FullDouble(phase.mix.get) +
                        ",scan:" + FullDouble(phase.mix.scan) +
                        ",insert:" + FullDouble(phase.mix.insert) +
                        ",update:" + FullDouble(phase.mix.update) +
                        ",delete:" + FullDouble(phase.mix.del) +
                        ",range_count:" + FullDouble(phase.mix.range_count));
    emit_str("access", AccessToSpecString(phase.access));
    emit_dbl("access_param", phase.access_param);
    emit_dbl("access_param2", phase.access_param2);
    emit_str("arrival", ArrivalToSpecString(phase.arrival));
    emit_dbl("arrival_qps", phase.arrival_rate_qps);
    emit_dbl("arrival_amplitude", phase.arrival_amplitude);
    emit_dbl("arrival_period_s", phase.arrival_period_seconds);
    emit_str("transition", TransitionToSpecString(phase.transition_in));
    emit_u64("transition_ops", phase.transition_operations);
    emit_bool("holdout", phase.holdout);
    emit_u64("scan_length", phase.scan_length);
    emit_dbl("range_selectivity", phase.range_selectivity);
    emit_str("batch_mix",
             "batch_get:" + FullDouble(phase.mix.batch_get) +
                 ",batch_put:" + FullDouble(phase.mix.batch_put));
    emit_u64("batch_size", phase.batch_size);
  }

  if (!(spec.service == ServiceSpec())) {
    emit("");
    emit("[service]");
    emit_bool("enabled", spec.service.enabled);
    emit_u64("queue_capacity", spec.service.queue_capacity);
    emit_str("policy", OverloadPolicyToString(spec.service.policy));
    emit_u64("slo_p99_ms",
             static_cast<uint64_t>(spec.service.slo_p99_nanos / 1000000));
    emit_dbl("max_shed_fraction", spec.service.max_shed_fraction);
  }

  if (spec.execution.workers != ExecutionSpec().workers) {
    emit("");
    emit("[execution]");
    emit_u64("workers", spec.execution.workers);
  }

  if (!(spec.observability == ObservabilitySpec())) {
    emit("");
    emit("[observability]");
    emit_bool("trace", spec.observability.trace);
    emit_bool("profile", spec.observability.profile);
    emit_bool("metrics", spec.observability.metrics);
  }

  if (spec.drift.declared) {
    emit("");
    emit("[drift]");
    if (!spec.drift.trajectory.empty()) {
      std::string joined;
      for (size_t i = 0; i < spec.drift.trajectory.size(); ++i) {
        if (i > 0) joined += ", ";
        joined += FullDouble(spec.drift.trajectory[i]);
      }
      emit_str("trajectory", joined);
    }
    emit_dbl("tolerance", spec.drift.tolerance);
    emit_u64("sample_ops", spec.drift.sample_ops);
    emit_u64("seed", spec.drift.seed);
  }

  const std::string resilience = RenderResilienceText(spec);
  if (!resilience.empty()) {
    emit("");
    out += resilience;
  }
  return out;
}

}  // namespace lsbench
