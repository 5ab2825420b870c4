#include "core/spec_text.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>
#include <utility>

#include "util/string_util.h"

namespace lsbench {

namespace {

/// Strips leading blanks and trailing blanks and carriage returns.
std::string Trim(const std::string& s) {
  const size_t last = s.find_last_not_of(" \t\r");
  if (last == std::string::npos) return "";
  const size_t first = s.find_first_not_of(" \t");
  return s.substr(first, last + 1 - first);
}

/// Shortest decimal representation that strtod round-trips exactly.
std::string FullDouble(double v) {
  char buf[64];
  // Prefer a shorter form when it round-trips (keeps specs readable); 17
  // significant digits always do.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// Codecs: how one key's value is parsed from and rendered to spec text.
// Parse errors describe the value only; the parse loop prefixes the line
// and the key.

struct TextCodec {
  Status Parse(const std::string& value, std::string* out) const {
    *out = value;
    return Status::OK();
  }
  std::string Render(const std::string& v) const { return v; }
};

/// Whole numbers in [min, max], stored as the written value times `scale`
/// (1, or nanoseconds per ms/us for durations).
struct IntCodec {
  int64_t min;
  uint64_t max;
  int64_t scale;
  template <class T>
  Status Parse(const std::string& value, T* out) const {
    // strtoull wraps negatives ("-1" is 2^64-1) and saturates overflow:
    // require digits, after a '-' only where min < 0, and check ERANGE.
    const size_t first = min < 0 && StartsWith(value, "-") ? 1 : 0;
    if (value.size() == first ||
        value.find_first_not_of("0123456789", first) != std::string::npos) {
      return Status::InvalidArgument("bad integer: " + value);
    }
    errno = 0;
    const uint64_t magnitude = std::strtoull(value.c_str() + first, nullptr,
                                             10);
    const bool in_range =
        first == 1 ? magnitude <= static_cast<uint64_t>(-min)
                   : magnitude <= max &&
                         (min <= 0 || magnitude >= static_cast<uint64_t>(min));
    if (errno == ERANGE || !in_range) {
      return Status::InvalidArgument(
          "value out of range [" + std::to_string(min) + ", " +
          std::to_string(max) + "]: " + value);
    }
    *out = first == 1
               ? static_cast<T>(-static_cast<int64_t>(magnitude))
               : static_cast<T>(magnitude * static_cast<uint64_t>(scale));
    return Status::OK();
  }
  template <class T>
  std::string Render(T v) const {
    return std::to_string(v / static_cast<T>(scale));
  }
};

/// A finite number, optionally with a range rule.
struct DoubleCodec {
  bool (*in_range)(double) = nullptr;
  const char* range = nullptr;
  Status Parse(const std::string& value, double* out) const {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    // strtod accepts "inf"/"nan" (and huge exponents overflow to inf); a
    // spec number must be finite or every downstream computation is poisoned.
    if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
      return Status::InvalidArgument("bad number: " + value);
    }
    if (in_range != nullptr && !in_range(v)) {
      return Status::InvalidArgument(std::string("must be ") + range +
                                     ", got " + value);
    }
    *out = v;
    return Status::OK();
  }
  std::string Render(double v) const { return FullDouble(v); }
};

struct BoolCodec {
  Status Parse(const std::string& value, bool* out) const {
    *out = value == "true" || value == "1" || value == "yes";
    if (*out || value == "false" || value == "0" || value == "no") {
      return Status::OK();
    }
    return Status::InvalidArgument("bad bool: " + value);
  }
  std::string Render(bool v) const { return v ? "true" : "false"; }
};

/// An enum spelled as one of a token list: every value the spec accepts,
/// and the function naming each. The list serves both directions.
template <class E>
struct EnumCodec {
  template <size_t N>
  EnumCodec(const E (&list)[N], std::string (*name)(E))
      : values(list), count(N), token(name) {}
  Status Parse(const std::string& value, E* out) const {
    std::string expected;
    for (size_t i = 0; i < count; ++i) {
      if (token(values[i]) == value) {
        *out = values[i];
        return Status::OK();
      }
      expected.append(i == 0 ? "" : "|").append(token(values[i]));
    }
    return Status::InvalidArgument("unknown value '" + value +
                                   "', expected " + expected);
  }
  std::string Render(E v) const { return token(v); }
  const E* values;
  size_t count;
  std::string (*token)(E);
};

constexpr AccessPattern kAccessPatterns[] = {
    AccessPattern::kUniform, AccessPattern::kZipfian, AccessPattern::kHotSpot,
    AccessPattern::kLatest, AccessPattern::kSequential};
constexpr ArrivalPattern kArrivals[] = {
    ArrivalPattern::kClosedLoop, ArrivalPattern::kPoisson,
    ArrivalPattern::kDiurnal, ArrivalPattern::kBursty,
    ArrivalPattern::kConstant};
constexpr TransitionKind kTransitions[] = {
    TransitionKind::kAbrupt, TransitionKind::kLinear, TransitionKind::kCosine};
constexpr OverloadPolicy kPolicies[] = {OverloadPolicy::kDropNewest,
                                        OverloadPolicy::kDropOldest,
                                        OverloadPolicy::kSloShed};
constexpr StatusCode kFailCodes[] = {
    StatusCode::kUnavailable, StatusCode::kTimeout,
    StatusCode::kResourceExhausted, StatusCode::kIoError,
    StatusCode::kInternal};

/// The spec writes closed-loop arrivals as `closed`; every other token is
/// the pattern's display name.
std::string ArrivalToken(ArrivalPattern arrival) {
  return arrival == ArrivalPattern::kClosedLoop
             ? "closed"
             : ArrivalPatternToString(arrival);
}

std::string FailCodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kIoError: return "io_error";
    default: return "internal";
  }
}

/// One `op:fraction` component of a mix key.
struct MixOp {
  const char* op;
  double OperationMix::*fraction;
};

constexpr MixOp kScalarOps[] = {{"get", &OperationMix::get},
                                 {"scan", &OperationMix::scan},
                                 {"insert", &OperationMix::insert},
                                 {"update", &OperationMix::update},
                                 {"delete", &OperationMix::del},
                                 {"range_count", &OperationMix::range_count}};
constexpr MixOp kBatchOps[] = {{"batch_get", &OperationMix::batch_get},
                               {"batch_put", &OperationMix::batch_put}};

constexpr DoubleCodec kNonNegative{[](double v) { return v >= 0.0; },
                                   ">= 0"};

/// Comma-separated `op:fraction` components over a fixed op list. Parsing
/// zeroes only this list's fractions, so `mix` (scalar ops) and `batch_mix`
/// (batch ops) compose in either file order.
struct MixCodec {
  template <size_t N>
  explicit MixCodec(const MixOp (&list)[N]) : ops(list), count(N) {}
  Status Parse(const std::string& value, OperationMix* mix) const {
    for (size_t i = 0; i < count; ++i) mix->*ops[i].fraction = 0.0;
    for (const std::string& part : Split(value, ',')) {
      const std::vector<std::string> kv = Split(Trim(part), ':');
      const MixOp* op = std::find_if(ops, ops + count, [&](const MixOp& m) {
        return kv.size() == 2 && Trim(kv[0]) == m.op;
      });
      if (op == ops + count) {
        return Status::InvalidArgument("bad op:fraction component: " + part);
      }
      LSBENCH_RETURN_IF_ERROR(
          kNonNegative.Parse(Trim(kv[1]), &(mix->*op->fraction)));
    }
    return Status::OK();
  }
  std::string Render(const OperationMix& mix) const {
    std::string out;
    for (size_t i = 0; i < count; ++i) {
      out.append(i == 0 ? "" : ",").append(ops[i].op).append(":");
      out.append(FullDouble(mix.*ops[i].fraction));
    }
    return out;
  }

  const MixOp* ops;
  size_t count;
};

/// Comma-separated numbers; an empty value is an empty list.
struct DoubleListCodec {
  Status Parse(const std::string& value, std::vector<double>* out) const {
    out->clear();
    if (value.empty()) return Status::OK();
    for (const std::string& part : Split(value, ',')) {
      double v = 0.0;
      LSBENCH_RETURN_IF_ERROR(DoubleCodec().Parse(Trim(part), &v));
      out->push_back(v);
    }
    return Status::OK();
  }
  std::string Render(const std::vector<double>& values) const {
    std::string out;
    for (const double v : values) {
      out.append(out.empty() ? "" : ", ").append(FullDouble(v));
    }
    return out;
  }
};

constexpr TextCodec kText{};
constexpr IntCodec kU64{0, std::numeric_limits<uint64_t>::max(), 1};
constexpr IntCodec kU32{0, std::numeric_limits<uint32_t>::max(), 1};
constexpr int64_t kInt32Min = std::numeric_limits<int32_t>::min();
constexpr uint64_t kInt32Max = std::numeric_limits<int32_t>::max();
constexpr uint64_t kMaxNanos = std::numeric_limits<int64_t>::max();
constexpr IntCodec kMillis{0, kMaxNanos / 1000000, 1000000};
constexpr IntCodec kMicros{0, kMaxNanos / 1000, 1000};
constexpr DoubleCodec kDouble{};
constexpr BoolCodec kBool{};

// Field lists: one line per key, binding its name to its field and codec.
// ParseArchive and RenderArchive both walk these lists, so unknown-key
// rejection comes from the list and render order is list order. A fourth
// argument is a value the key renders no line for.

template <class A>
void Fields(A& a, RunPlan& s) {
  a("name", s.name, kText);
  a("seed", s.seed, kU64);
  a("interval_ms", s.interval_nanos, kMillis);
  a("boxplot_sample_ms", s.boxplot_sample_nanos, kMillis);
  a("offline_training", s.offline_training, kBool);
  a("sla_ms", s.sla.threshold_nanos, kMillis, int64_t{0});
  a("sla_auto_percentile", s.sla.auto_percentile, kDouble);
  a("sla_auto_margin", s.sla.auto_margin, kDouble);
  a("adjustment_window_ops", s.adjustment_window_ops, kU64);
}

template <class A>
void Fields(A& a, DatasetSourceSpec& d) {
  a("kind", d.kind, kText);
  a("num_keys", d.num_keys, kU64);
  a("seed", d.seed, kU64);
  a("param1", d.param1, kDouble);
  a("param2", d.param2, kDouble);
}

template <class A>
void Fields(A& a, PhaseSpec& p) {
  a("name", p.name, kText);
  a("dataset", p.dataset_index, IntCodec{0, kInt32Max, 1});
  a("ops", p.num_operations, kU64);
  a("mix", p.mix, MixCodec(kScalarOps));
  a("access", p.access, EnumCodec(kAccessPatterns, AccessPatternToString));
  a("access_param", p.access_param, kDouble);
  a("access_param2", p.access_param2, kDouble);
  a("arrival", p.arrival, EnumCodec(kArrivals, ArrivalToken));
  a("arrival_qps", p.arrival_rate_qps, kNonNegative);
  a("arrival_amplitude", p.arrival_amplitude,
    DoubleCodec{[](double v) { return v >= 0.0 && v < 1.0; }, "in [0, 1)"});
  a("arrival_period_s", p.arrival_period_seconds,
    DoubleCodec{[](double v) { return v > 0.0; }, "> 0"});
  a("transition", p.transition_in,
    EnumCodec(kTransitions, TransitionKindToString));
  a("transition_ops", p.transition_operations, kU64);
  a("holdout", p.holdout, kBool);
  a("scan_length", p.scan_length, kU32);
  a("range_selectivity", p.range_selectivity, kDouble);
  a("batch_mix", p.mix, MixCodec(kBatchOps));
  a("batch_size", p.batch_size, IntCodec{1, 4096, 1});
}

/// Plan-level fault keys: accepted in any [faults] section.
template <class A>
void Fields(A& a, FaultPlan& f) {
  a("seed", f.seed, kU64, FaultPlan().seed);
  a("fail_load", f.fail_load, kBool, false);
}

template <class A>
void Fields(A& a, FaultWindow& w) {
  a("phase", w.phase, IntCodec{kInt32Min, kInt32Max, 1});
  a("execute_fail_rate", w.execute_fail_rate, kDouble);
  a("execute_fail_code", w.execute_fail_code,
    EnumCodec(kFailCodes, FailCodeToken));
  a("latency_spike_rate", w.latency_spike_rate, kDouble);
  a("latency_spike_us", w.latency_spike_nanos, kMicros);
  a("stall_rate", w.stall_rate, kDouble);
  a("stall_us", w.stall_nanos, kMicros);
  a("fail_train", w.fail_train, kBool);
  a("train_hang_us", w.train_hang_nanos, kMicros);
}

template <class A>
void Fields(A& a, ResilienceSpec& r) {
  a("op_timeout_us", r.op_timeout_nanos, kMicros);
  a("max_retries", r.max_retries, kU32);
  a("backoff_initial_us", r.backoff_initial_nanos, kMicros);
  a("backoff_multiplier", r.backoff_multiplier, kDouble);
  a("backoff_max_us", r.backoff_max_nanos, kMicros);
  a("backoff_jitter", r.backoff_jitter, kDouble);
  a("breaker_enabled", r.breaker_enabled, kBool);
  a("breaker_window_ops", r.breaker_window_ops, kU32);
  a("breaker_threshold", r.breaker_failure_threshold, kDouble);
  a("breaker_cooldown_us", r.breaker_cooldown_nanos, kMicros);
  a("breaker_halfopen_probes", r.breaker_half_open_probes, kU32);
}

template <class A>
void Fields(A& a, ExecutionSpec& e) {
  a("workers", e.workers, kU32);
}

template <class A>
void Fields(A& a, ObservabilitySpec& o) {
  a("trace", o.trace, kBool);
  a("profile", o.profile, kBool);
  a("metrics", o.metrics, kBool);
}

template <class A>
void Fields(A& a, ServiceSpec& s) {
  a("enabled", s.enabled, kBool);
  a("queue_capacity", s.queue_capacity, kU32);
  a("policy", s.policy, EnumCodec(kPolicies, OverloadPolicyToString));
  a("slo_p99_ms", s.slo_p99_nanos, kMillis);
  a("max_shed_fraction", s.max_shed_fraction, kDouble);
}

template <class A>
void Fields(A& a, DriftSpec& d) {
  a("trajectory", d.trajectory, DoubleListCodec(), std::vector<double>());
  a("tolerance", d.tolerance, kDouble);
  a("sample_ops", d.sample_ops, kU64);
  a("seed", d.seed, kU64);
}

/// Parses one `key = value` line into the listed field named `key`.
struct ParseArchive {
  const std::string& key;
  const std::string& value;
  const void* field = nullptr;  ///< The matched field; null if none.
  Status status;

  template <class T, class C, class... Omitted>
  void operator()(const char* name, T& target, const C& codec,
                  const Omitted&...) {
    if (field != nullptr || key != name) return;
    field = &target;
    status = codec.Parse(value, &target);
  }
};

/// Renders every listed field as a `key = value` line.
struct RenderArchive {
  std::string out;

  template <class T, class C, class... Omitted>
  void operator()(const char* name, const T& field, const C& codec,
                  const Omitted&... omitted) {
    if ((... || (field == omitted))) return;
    out += std::string(name) + " = " + codec.Render(field) + '\n';
  }
};

template <class T>
std::string RenderFields(const T& object) {
  RenderArchive archive;
  // The field lists bind mutable references so one list serves both
  // archives; RenderArchive only reads through them.
  Fields(archive, const_cast<T&>(object));
  return archive.out;
}

using Section = SpecSection;

/// Section headers, indexed by Section. The top level has no header; its
/// entry only names it in errors.
constexpr const char* kHeaders[] = {
    "top-level",   "[dataset]",       "[phase]",   "[faults]", "[resilience]",
    "[execution]", "[observability]", "[service]", "[drift]"};

Status AtLine(size_t line, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                 message);
}

/// Spec names (run, phase) become comment-stripped, trimmed single lines on
/// reparse; reject the characters the renderer cannot round-trip.
Status CheckRenderableName(const std::string& name, const char* what) {
  if (name.find_first_of("#\n\r") != std::string::npos) {
    return Status::InvalidArgument(
        std::string(what) + " contains '#' or a newline and cannot be "
        "rendered as spec text: " + name);
  }
  return Status::OK();
}

/// The lines of one section's header and of the last setting of each of
/// its keys, by which a semantic error (SpecSite) is located.
struct SectionLines {
  size_t header = 0;  // 0 for the top level, which has no header
  std::map<std::string, size_t> keys;

  /// Locates `message` about `site`: at the last line of its keys the
  /// text set, naming that key as a parse error does, else at the header
  /// line. A site the text holds no line for leaves it as it is.
  Status Locate(const SpecSite& site, const std::string& message) const {
    const std::string* found = nullptr;
    size_t line = 0;
    for (const char* key : site.keys) {
      const auto it = keys.find(key);
      if (it != keys.end() && it->second > line) {
        found = &it->first;
        line = it->second;
      }
    }
    if (found != nullptr) return AtLine(line, *found + ": " + message);
    if (header != 0) return AtLine(header, message);
    return Status::InvalidArgument(message);
  }
};

}  // namespace

Result<ParsedSpec> ParseRunSpecText(const std::string& text) {
  ParsedSpec spec;
  Section section = Section::kTop;
  SectionLines open;  // the open section's lines
  // Every closed section's lines, by (section, ordinal) as SpecSite names
  // them.
  std::map<std::pair<Section, size_t>, SectionLines> closed;
  DatasetSourceSpec dataset;
  PhaseSpec phase;
  FaultWindow window;

  // Finishes the open section. A dataset error names the line of the
  // parameter at fault, else the section's header line.
  auto close_section = [&]() -> Status {
    size_t index = 0;
    switch (section) {
      case Section::kDataset: {
        int param = 0;
        const Status st = CheckDatasetSource(dataset, &param);
        if (!st.ok()) {
          // A parameter's error starts with its key and names its line.
          const char* key = param == 1 ? "param1" : "param2";
          return AtLine(param == 0 ? open.header : open.keys[key],
                        st.message());
        }
        index = spec.datasets.size();
        spec.datasets.push_back(std::exchange(dataset, DatasetSourceSpec()));
        break;
      }
      case Section::kPhase:
        index = spec.phases.size();
        spec.phases.push_back(std::exchange(phase, PhaseSpec()));
        break;
      case Section::kFaults:
        // An all-default window only carried plan-level keys; drop it.
        if (window == FaultWindow()) return Status::OK();
        index = spec.faults.windows.size();
        spec.faults.windows.push_back(std::exchange(window, FaultWindow()));
        break;
      default: break;
    }
    closed[{section, index}] = std::move(open);
    return Status::OK();
  };

  size_t line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    const std::string line = Trim(raw_line.substr(0, raw_line.find('#')));
    if (line.empty()) continue;

    if (line.front() == '[') {
      const auto* header =
          std::find(std::begin(kHeaders) + 1, std::end(kHeaders), line);
      if (header == std::end(kHeaders)) {
        return AtLine(line_no, "unknown section " + line);
      }
      LSBENCH_RETURN_IF_ERROR(close_section());
      section = static_cast<Section>(header - std::begin(kHeaders));
      // Datasets, phases and fault windows repeat; every other section is
      // one block, and a second header would silently merge into it.
      const bool repeats = section == Section::kDataset ||
                           section == Section::kPhase ||
                           section == Section::kFaults;
      if (const auto first = closed.find({section, 0});
          !repeats && first != closed.end()) {
        return AtLine(line_no, "duplicate " + line + " (first at line " +
                                   std::to_string(first->second.header) +
                                   ")");
      }
      open = SectionLines{line_no, {}};
      if (section == Section::kDrift) spec.drift.declared = true;
      continue;
    }

    const size_t eq = line.find('=');
    if (eq == std::string::npos) return AtLine(line_no, "expected key = value");
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    ParseArchive archive{key, value, nullptr, Status::OK()};
    switch (section) {
      case Section::kTop: Fields(archive, spec); break;
      case Section::kDataset: Fields(archive, dataset); break;
      case Section::kPhase: Fields(archive, phase); break;
      case Section::kFaults:
        Fields(archive, spec.faults);
        Fields(archive, window);
        break;
      case Section::kResilience: Fields(archive, spec.resilience); break;
      case Section::kExecution: Fields(archive, spec.execution); break;
      case Section::kObservability: Fields(archive, spec.observability); break;
      case Section::kService: Fields(archive, spec.service); break;
      case Section::kDrift: Fields(archive, spec.drift); break;
    }
    if (archive.field == nullptr && section == Section::kFaults &&
        key == "load_failures") {
      // The driver loads once, so a count of load failures only ever
      // meant "fail the load".
      return AtLine(line_no, "unknown [faults] key 'load_failures'; use "
                             "fail_load = true|false");
    }
    if (archive.field == nullptr) {
      return AtLine(line_no, "unknown " + std::string(kHeaders[static_cast<int>(
                                 section)]) + " key '" + key + "'");
    }
    if (!archive.status.ok()) {
      return AtLine(line_no, key + ": " + archive.status.message());
    }
    open.keys[key] = line_no;
  }
  LSBENCH_RETURN_IF_ERROR(close_section());
  // The semantic checks are the validator's alone; the parser only finds
  // the line of what it reports.
  SpecSite site;
  if (const Status st = spec.Validate(&site); !st.ok()) {
    const auto it = closed.find({site.section, site.index});
    return it == closed.end() ? st : it->second.Locate(site, st.message());
  }
  return spec;
}

Result<RunSpec> LoadRunSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open spec file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  LSBENCH_ASSIGN_OR_RETURN(ParsedSpec spec, ParseRunSpecText(text.str()));
  return BuildDatasets(std::move(spec));
}

Result<std::string> RenderRunSpecText(const ParsedSpec& spec) {
  LSBENCH_RETURN_IF_ERROR(CheckRenderableName(spec.name, "run name"));
  for (const PhaseSpec& phase : spec.phases) {
    if (phase.trace != nullptr) {
      return Status::FailedPrecondition(
          "phase '" + phase.name +
          "' replays a trace; the text format has no trace key");
    }
    LSBENCH_RETURN_IF_ERROR(CheckRenderableName(phase.name, "phase name"));
  }

  std::string out = RenderFields(spec);
  auto emit_section = [&](Section s, const std::string& body) {
    out += '\n' + std::string(kHeaders[static_cast<int>(s)]) + '\n' + body;
  };
  // A single section appears only when some key differs from its default.
  auto emit_if_set = [&](Section section, const auto& object) {
    const std::string body = RenderFields(object);
    if (body != RenderFields(std::decay_t<decltype(object)>())) {
      emit_section(section, body);
    }
  };

  for (const DatasetSourceSpec& source : spec.datasets) {
    emit_section(Section::kDataset, RenderFields(source));
  }
  for (const PhaseSpec& phase : spec.phases) {
    emit_section(Section::kPhase, RenderFields(phase));
  }
  emit_if_set(Section::kService, spec.service);
  emit_if_set(Section::kExecution, spec.execution);
  emit_if_set(Section::kObservability, spec.observability);
  if (spec.drift.declared) {
    emit_section(Section::kDrift, RenderFields(spec.drift));
  }
  // Plan-level fault keys ride in the first [faults] section, or in one of
  // their own when there are no windows.
  std::string plan = RenderFields(spec.faults);
  for (const FaultWindow& w : spec.faults.windows) {
    emit_section(Section::kFaults,
                 std::exchange(plan, std::string()) + RenderFields(w));
  }
  if (!plan.empty()) emit_section(Section::kFaults, plan);
  emit_if_set(Section::kResilience, spec.resilience);
  return out;
}

}  // namespace lsbench
