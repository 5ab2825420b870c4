// lsbench_cli — run an LSBench spec file against a chosen system under test
// and print the paper's metric suite.
//
// Usage:
//   lsbench_cli <spec-file>
//               [--sut=btree|lsm|rmi|pgm|adaptive|partitioned|stdcmp]
//               [--no-holdout-enforcement] [--csv] [--html=PATH]
//               [--faults=RATE] [--no-faults] [--op-timeout-us=N]
//               [--retries=N] [--workers=N] [--trace-out=PATH] [--sim]
//               [--drift-csv=PATH]
//
//   --sut               system under test (default btree). "partitioned"
//                       is 16 range-partitioned B-trees, one lock each,
//                       run without the driver's lock. "stdcmp" runs
//                       btree + rmi + adaptive through the comparison
//                       harness instead of a single system; it writes no
//                       HTML report or trace, so --html and --trace-out are
//                       rejected with it. A spec with hold-out phases runs
//                       once per process, so stdcmp refuses it (exit 1)
//                       unless --no-holdout-enforcement is given.
//   --no-holdout-enforcement
//                       allow re-running specs that contain hold-out phases
//   --csv               also print every report table as a CSV block
//                       ("## <table>.csv") for downstream plotting
//   --html=PATH         additionally write a self-contained HTML report
//                       with inline SVG charts to PATH
//   --faults=RATE       inject transient Execute failures in every phase at
//                       the given rate (adds a wildcard fault window on top
//                       of whatever the spec declares)
//   --no-faults         strip all fault windows from the spec (run the
//                       healthy baseline of a faulted spec)
//   --op-timeout-us=N   override the per-op timeout budget (0 disables)
//   --retries=N         override the max retry count for transient errors
//   --workers=N         override the execution fan-out ([execution] workers;
//                       1 reproduces the historical serial driver exactly)
//   --trace-out=PATH    write the merged observability trace (spans, stage
//                       breakdown, metrics snapshot) to PATH; forces the
//                       spec's [observability] trace/profile/metrics on
//   --sim               run on a virtual clock (simulation mode): fully
//                       deterministic timestamps, so two identical --sim
//                       runs produce byte-identical output and --trace-out
//                       files
//   --drift-csv=PATH    write the per-transition drift-trajectory CSV to
//                       PATH (measured factor + components, declared
//                       targets, verdicts)
//
// Numeric flag values must parse whole; a bad value or an unknown flag
// exits 2, a spec or validation error exits 1.
//
// See src/core/spec_text.h for the spec file format; sample specs live in
// specs/.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/comparison.h"
#include "core/drift.h"
#include "core/driver.h"
#include "core/spec_text.h"
#include "core/specialization.h"
#include "report/html.h"
#include "report/report.h"
#include "report/table.h"
#include "sut/concurrent_kv.h"
#include "sut/systems.h"
#include "util/file.h"

namespace lsbench {
namespace {

constexpr char kUsage[] =
    "usage: lsbench_cli <spec-file> "
    "[--sut=btree|lsm|rmi|pgm|adaptive|partitioned|stdcmp] "
    "[--no-holdout-enforcement] [--csv] [--html=PATH] [--faults=RATE] "
    "[--no-faults] [--op-timeout-us=N] [--retries=N] [--workers=N] "
    "[--trace-out=PATH] [--sim] [--drift-csv=PATH]\n";

/// `clock` (may be null → RealClock) times SUT-internal retraining; passing
/// the simulation clock keeps every exported duration virtual, so --sim
/// --trace-out files stay byte-identical run to run.
std::unique_ptr<SystemUnderTest> MakeSut(const std::string& kind,
                                         const Clock* clock) {
  if (kind == "btree") return std::make_unique<BTreeSystem>();
  if (kind == "lsm") return std::make_unique<LsmKvSystem>();
  if (kind == "rmi") {
    return std::make_unique<LearnedKvSystem>(LearnedSystemOptions(), clock);
  }
  if (kind == "pgm") {
    LearnedSystemOptions options;
    options.index_kind = LearnedSystemOptions::IndexKind::kPgm;
    return std::make_unique<LearnedKvSystem>(options, clock);
  }
  if (kind == "adaptive") return std::make_unique<AdaptiveKvSystem>();
  if (kind == "partitioned") return std::make_unique<PartitionedKvSystem>(16);
  return nullptr;
}

/// Parses all of `text` as a T: false on an empty, partial, malformed or
/// out-of-range value (so "4x" and "two" are errors, not 4 and 0).
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

int Run(int argc, char** argv) {
  std::string spec_path;
  std::string sut_kind = "btree";
  bool enforce_holdout = true;
  bool emit_csv = false;
  bool strip_faults = false;
  std::optional<double> fault_rate;
  std::optional<uint64_t> op_timeout_us;
  std::optional<uint32_t> retries;
  std::optional<uint32_t> workers;
  std::string html_path;
  std::string trace_path;
  std::string drift_csv_path;
  bool simulate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A value flag is matched with its '=': "--html" alone is unknown.
    const size_t eq = arg.find('=');
    const std::string flag =
        eq == std::string::npos ? arg : arg.substr(0, eq + 1);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool parsed = true;
    if (flag == "--sut=") {
      sut_kind = value;
    } else if (arg == "--no-holdout-enforcement") {
      enforce_holdout = false;
    } else if (arg == "--csv") {
      emit_csv = true;
    } else if (flag == "--html=") {
      html_path = value;
    } else if (arg == "--no-faults") {
      strip_faults = true;
    } else if (flag == "--faults=") {
      parsed = ParseNumber(value, &fault_rate.emplace());
    } else if (flag == "--op-timeout-us=") {
      // Bounded so the conversion to nanoseconds cannot overflow.
      parsed = ParseNumber(value, &op_timeout_us.emplace()) &&
               *op_timeout_us <=
                   static_cast<uint64_t>(
                       std::numeric_limits<int64_t>::max() / 1000);
    } else if (flag == "--retries=") {
      parsed = ParseNumber(value, &retries.emplace());
    } else if (flag == "--workers=") {
      parsed = ParseNumber(value, &workers.emplace());
    } else if (flag == "--trace-out=") {
      trace_path = value;
    } else if (flag == "--drift-csv=") {
      drift_csv_path = value;
    } else if (arg == "--sim") {
      simulate = true;
    } else if (!arg.empty() && arg[0] != '-') {
      spec_path = arg;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg.c_str(), kUsage);
      return 2;
    }
    if (!parsed) {
      std::fprintf(stderr, "bad value '%s' for %.*s\n", value.c_str(),
                   static_cast<int>(eq), arg.c_str());
      return 2;
    }
  }
  if (spec_path.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (sut_kind == "stdcmp" && (!html_path.empty() || !trace_path.empty())) {
    std::fprintf(stderr,
                 "--sut=stdcmp writes no HTML report or trace; drop --html "
                 "and --trace-out\n");
    return 2;
  }

  Result<RunSpec> loaded = LoadRunSpecFile(spec_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "spec error: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  RunSpec spec = std::move(loaded).value();
  std::printf("parsed spec '%s': %zu dataset(s), %zu phase(s)\n",
              spec.name.c_str(), spec.datasets.size(), spec.phases.size());

  // Fault / resilience overrides on top of the spec.
  if (strip_faults) spec.faults = FaultPlan();
  if (fault_rate) {
    FaultWindow window;
    window.execute_fail_rate = *fault_rate;
    spec.faults.windows.push_back(window);
  }
  if (op_timeout_us) {
    spec.resilience.op_timeout_nanos =
        static_cast<int64_t>(*op_timeout_us) * 1000;
  }
  if (retries) spec.resilience.max_retries = *retries;
  if (workers) spec.execution.workers = *workers;
  if (!trace_path.empty()) {
    spec.observability.trace = true;
    spec.observability.profile = true;
    spec.observability.metrics = true;
  }
  if (const Status st = spec.Validate(); !st.ok()) {
    std::fprintf(stderr, "spec error: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!spec.faults.Empty()) {
    std::printf("fault plan: %zu window(s), seed %llu\n",
                spec.faults.windows.size(),
                static_cast<unsigned long long>(spec.faults.seed));
  }

  // Offline measurement over throwaway generators — runs before execution
  // and is identical in --sim and real-time mode.
  const DriftTrajectoryReport drift = MeasureDriftTrajectory(spec);
  std::optional<Table> drift_table = DriftTable(drift);
  if (!drift_csv_path.empty()) {
    const Status st = WriteTextFile(
        drift_csv_path, drift_table ? TableCsv(*drift_table) : "");
    if (!st.ok()) {
      std::fprintf(stderr, "drift csv: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote drift trajectory to %s\n", drift_csv_path.c_str());
  }

  DriverOptions driver_options;
  driver_options.enforce_holdout_once = enforce_holdout;
  VirtualClock virtual_clock;
  const Clock* clock = nullptr;
  if (simulate) {
    driver_options.virtual_clock = &virtual_clock;
    clock = &virtual_clock;
    std::printf("simulation mode: virtual clock, deterministic timestamps\n");
  }

  // Both modes end in the same report: a headline, the tables, any charts,
  // the drift verdict, and under --csv every table again as CSV.
  std::string headline;
  std::vector<Table> tables;
  std::string charts;
  if (sut_kind == "stdcmp") {
    const std::unique_ptr<SystemUnderTest> suts[] = {
        MakeSut("btree", clock), MakeSut("rmi", clock),
        MakeSut("adaptive", clock)};
    const Result<ComparisonReport> report = CompareSystems(
        spec, {suts[0].get(), suts[1].get(), suts[2].get()}, clock,
        driver_options);
    if (!report.ok()) {
      std::fprintf(stderr, "run error: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    headline = "=== Comparison on run '" + spec.name + "' ===\n";
    tables.push_back(ComparisonTable(report.value()));
    if (drift_table) tables.push_back(std::move(*drift_table));
  } else {
    const std::unique_ptr<SystemUnderTest> sut = MakeSut(sut_kind, clock);
    if (sut == nullptr) {
      std::fprintf(stderr, "unknown --sut: %s\n", sut_kind.c_str());
      return 2;
    }
    BenchmarkDriver driver(clock, driver_options);
    const Result<RunResult> result = driver.Run(spec, sut.get());
    if (!result.ok()) {
      std::fprintf(stderr, "run error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const RunResult& run = result.value();
    const SpecializationReport specialization =
        BuildSpecializationReport(spec, run);
    if (!trace_path.empty()) {
      const Status st = WriteTextFile(
          trace_path, RenderTraceFile(run.observability, run.run_name,
                                      run.sut_name, spec.execution.workers));
      if (!st.ok()) {
        std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote trace to %s\n", trace_path.c_str());
    }
    if (!html_path.empty()) {
      const Status st = WriteTextFile(
          html_path, RenderHtmlReport(run, specialization, drift));
      if (!st.ok()) {
        std::fprintf(stderr, "html report: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote HTML report to %s\n", html_path.c_str());
    }
    headline = RenderRunSummary(run) + "\n";
    tables = RunTables(run, specialization, drift);
    charts = RenderSpecializationReport(specialization) + "\n" +
             RenderSlaBands(run.metrics.bands, run.metrics.sla_nanos) + "\n";
  }

  std::printf("%s", headline.c_str());
  for (const Table& table : tables) {
    if (!table.chart) std::printf("%s\n", TableText(table).c_str());
  }
  std::printf("%s%s", charts.c_str(), RenderDriftReport(drift).c_str());
  if (emit_csv) {
    for (const Table& table : tables) {
      std::printf("## %s.csv\n%s\n", table.name.c_str(),
                  TableCsv(table).c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace lsbench

int main(int argc, char** argv) { return lsbench::Run(argc, argv); }
