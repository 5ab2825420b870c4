// lsbench_benchmark: one repetition of one LSBench benchmark workload.
//
//   lsbench_benchmark --workload NAME --seed N [--traced]
//   lsbench_benchmark --workload NAME --seed N --self-test
//
// A repetition generates the workload's data, runs it through
// BenchmarkDriver on the real clock, checks the run's accounting identities
// and prints one JSON line: the end-to-end metrics, the checks, and with
// --traced the per-layer metrics. The untraced repetition runs the driver
// exactly as a user would. The traced one switches on the stage profiler,
// times the SUT (see TimesSutWithDecorator), and times calls into the
// stream, sink, merge, metrics and index layers from outside.
//
// --self-test runs the workload at 1/100 size on a virtual clock twice,
// bare and traced, and fails unless both produce byte-identical event
// streams: the traced repetition executes the same operations as the
// untraced one.
//
// benchmark/run.py builds this binary, repeats it, and reports medians.
// Exit status: 0 when every check passed, 1 on a failed check or run, 2 on
// a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "benchmark/probes.h"
#include "benchmark/workloads.h"
#include "core/driver.h"
#include "core/event_sink.h"
#include "core/metrics.h"
#include "obs/profile.h"
#include "sut/systems.h"
#include "util/clock.h"

namespace lsbench {
namespace bm {
namespace {

/// Builds one flat JSON object. Keys are plain identifiers and values are
/// numbers, booleans, plain strings or nested objects.
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  Json& Obj(const std::string& key, const Json& value) {
    return Raw(key, value.str());
  }
  Json& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double NanosToSeconds(int64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

/// The size divisor of the self-test's simulated runs.
constexpr uint64_t kSelfTestScale = 100;

/// Whether the traced run times the SUT with a TimedSut decorator. The
/// driver runs a monomorphized loop only on the library's own final SUT
/// types and on its SerializingSut; any other decorator falls back to the
/// virtual-dispatch loop. So the decorator goes in only where the driver
/// wraps it in SerializingSut (a serial SUT under fan-out) and the loop
/// stays the one the untraced run executes. Everywhere else the SUT's time
/// is the profiler's execute stage, which spans the same call.
bool TimesSutWithDecorator(const RunSpec& spec, const SystemUnderTest& sut) {
  return spec.execution.workers > 1 &&
         sut.concurrency() == SutConcurrency::kSerial;
}

/// The latency the user sees per element: on open-loop service workloads
/// the response time of the executed requests (queue sheds excluded), and
/// otherwise the request-unit latency of every element.
const Histogram& UserLatency(const RunSpec& spec, const RunMetrics& metrics) {
  return spec.service.enabled ? metrics.service.response_latency
                              : metrics.overall_latency;
}

uint64_t TotalRequests(const RunSpec& spec) {
  uint64_t total = 0;
  for (const PhaseSpec& p : spec.phases) total += p.num_operations;
  return total;
}

/// Named pass/fail results of one repetition's output checks.
class Checks {
 public:
  void Add(const std::string& name, bool passed) {
    json_.Bool(name, passed);
    if (!passed) {
      passed_ = false;
      std::fprintf(stderr, "check failed: %s\n", name.c_str());
    }
  }
  bool passed() const { return passed_; }
  const Json& json() const { return json_; }

 private:
  Json json_;
  bool passed_ = true;
};

/// The spec's sizes, stamped into every result.
Json DescribeSizes(const RunSpec& spec) {
  Json sizes;
  sizes.Int("workers", spec.execution.workers);
  sizes.Int("datasets", spec.datasets.size());
  sizes.Int("keys", spec.datasets.front().size());
  sizes.Int("requests", TotalRequests(spec));
  std::string phases = "[";
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    const PhaseSpec& p = spec.phases[i];
    Json phase;
    phase.Int("requests", p.num_operations);
    if (p.mix.batch_get > 0.0 || p.mix.batch_put > 0.0) {
      phase.Int("batch_size", p.batch_size);
    }
    phase.Int("dataset", static_cast<uint64_t>(p.dataset_index));
    phase.Str("arrival", ArrivalPatternToString(p.arrival));
    phase.Num("arrival_qps", p.arrival_rate_qps);
    phases += (i > 0 ? ", " : "") + phase.str();
  }
  sizes.Raw("phases", phases + "]");
  if (spec.service.enabled) {
    sizes.Int("queue_capacity", spec.service.queue_capacity);
  }
  return sizes;
}

/// The host and build that produced a result. The L3 size comes from
/// glibc's sysconf extension and reads 0 where it is unknown.
Json DescribeHost() {
  Json host;
  host.Int("nproc", std::thread::hardware_concurrency());
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  host.Int("l3_bytes", l3 > 0 ? static_cast<uint64_t>(l3) : 0);
#if defined(__clang__)
  host.Str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.Str("compiler", std::string("gcc ") + __VERSION__);
#else
  host.Str("compiler", "unknown");
#endif
  host.Str("build_type", LSBENCH_BUILD_TYPE);
  return host;
}

/// The accounting identities every repetition must satisfy.
void CheckAccounting(const Workload& workload, const RunSpec& spec,
                     const RunResult& result, Checks* checks) {
  const EventStream& events = result.events;
  const RunMetrics& metrics = result.metrics;

  uint64_t phase_elements = 0;
  for (const PhaseMetrics& p : metrics.phases) phase_elements += p.operations;
  checks->Add("events_equal_phase_elements",
              events.size() == phase_elements &&
                  events.size() == metrics.total_operations);

  // Each request unit of batch b leaves b events that carry batch == b, so
  // a phase's events per batch size, divided by that size, count its units.
  std::vector<std::map<uint32_t, uint64_t>> per_phase(spec.phases.size());
  uint64_t gets_missed = 0;
  uint64_t failed_not_shed = 0;
  uint64_t queue_shed = 0;
  bool phases_valid = true;
  for (const OpEvent& e : events) {
    if (e.phase < 0 || static_cast<size_t>(e.phase) >= per_phase.size()) {
      phases_valid = false;
      continue;
    }
    per_phase[static_cast<size_t>(e.phase)][std::max<uint32_t>(e.batch, 1)]++;
    if (e.queue_shed) {
      queue_shed++;
      continue;
    }
    if (e.failed) failed_not_shed++;
    const bool read = e.type == OpType::kGet || e.type == OpType::kBatchGet;
    if (read && !e.ok) gets_missed++;
  }
  bool units_match = phases_valid &&
                     result.boundaries.size() == spec.phases.size();
  for (size_t p = 0; units_match && p < per_phase.size(); ++p) {
    uint64_t units = 0;
    for (const auto& [batch, count] : per_phase[p]) {
      if (count % batch != 0) units_match = false;
      units += count / batch;
    }
    units_match = units_match && units == spec.phases[p].num_operations &&
                  result.boundaries[p].operations == units;
  }
  checks->Add("request_units_equal_phase_requests", units_match);
  checks->Add("no_failures_besides_queue_sheds", failed_not_shed == 0);
  if (workload.reads_must_hit) {
    checks->Add("every_get_finds_its_key", gets_missed == 0);
  }

  if (spec.service.enabled) {
    uint64_t admitted = 0;
    uint64_t shed = 0;
    for (const auto& [name, value] : result.observability.metrics.counters) {
      if (name == "service.admitted") admitted = value;
      if (name == "service.shed") shed = value;
    }
    checks->Add("admitted_plus_shed_equal_offered",
                admitted + shed == TotalRequests(spec));
    checks->Add("queue_sheds_match_events",
                metrics.service.queue_shed_operations == queue_shed);
  }
}

/// Sum of one stage's time over every phase (run-level work excluded).
int64_t StageNanos(const StageBreakdown& stages, Stage stage) {
  int64_t total = 0;
  for (const PhaseStageBreakdown& p : stages) {
    if (p.phase == PhaseStageBreakdown::kRunLevelPhase) continue;
    total += p.stages[static_cast<size_t>(stage)].total_nanos;
  }
  return total;
}

/// The traced repetition's per-layer metrics and its extra checks: the
/// outside merge and metrics must reproduce what the driver produced.
/// `timed` is the SUT's timing decorator, or null where the profiler's
/// execute stage times the SUT.
Json MeasureLayers(const RunSpec& spec, const RunResult& result,
                   const TimedSut* timed, Checks* checks) {
  const EventStream& events = result.events;
  const uint32_t workers = spec.execution.workers;
  const auto per_element = [&events](double nanos) {
    return Ratio(nanos, static_cast<double>(events.size()));
  };
  const RealClock clock;
  Json layers;

  // Stream: generation alone, with the run's seed.
  const StreamDrain drain = DrainStream(spec);
  layers.Num("core.stream_next_ns",
             Ratio(static_cast<double>(drain.nanos),
                   static_cast<double>(drain.units)));
  // One worker draws exactly the drained stream; under fan-out the workers
  // draw forked streams, so only the request count carries over.
  checks->Add("drained_stream_matches_run",
              drain.units == TotalRequests(spec) &&
                  (workers > 1 || drain.elements == events.size()));

  // Record, merge and metrics, replayed on the run's own events.
  bool in_seq_order = false;
  std::vector<EventStream> shards =
      SplitByWorker(events, workers, &in_seq_order);
  checks->Add("shards_in_issue_order", in_seq_order);
  bool replay_complete = false;
  const int64_t record_nanos = ReplayIntoSinks(shards, &replay_complete);
  checks->Add("sink_replay_records_every_event", replay_complete);
  layers.Num("core.record_ns", per_element(static_cast<double>(record_nanos)));

  const int64_t merge_start = clock.NowNanos();
  const EventStream merged = MergeEventShards(std::move(shards));
  const int64_t merge_nanos = clock.NowNanos() - merge_start;
  checks->Add("remerge_reproduces_event_stream",
              SameSerialization(merged, events));
  layers.Num("core.merge_ns", per_element(static_cast<double>(merge_nanos)));

  const int64_t metrics_start = clock.NowNanos();
  const RunMetrics outside = ComputeRunMetrics(
      events, result.boundaries, MetricsOptions::FromSpec(spec));
  const int64_t metrics_nanos = clock.NowNanos() - metrics_start;
  const RunMetrics& inside = result.metrics;
  bool totals_match =
      outside.total_operations == inside.total_operations &&
      outside.wall_seconds == inside.wall_seconds &&
      outside.overall_latency.count() == inside.overall_latency.count() &&
      outside.overall_latency.sum() == inside.overall_latency.sum() &&
      outside.overall_latency.P99() == inside.overall_latency.P99() &&
      outside.resilience.failed_operations ==
          inside.resilience.failed_operations &&
      outside.service.queue_shed_operations ==
          inside.service.queue_shed_operations &&
      outside.phases.size() == inside.phases.size();
  for (size_t p = 0; totals_match && p < inside.phases.size(); ++p) {
    totals_match = outside.phases[p].operations == inside.phases[p].operations;
  }
  checks->Add("outside_metrics_reproduce_totals", totals_match);
  layers.Num("core.metrics_ns",
             per_element(static_cast<double>(metrics_nanos)));

  // SUT time, set against the profiler's stages. Each worker loops for the
  // whole of every phase. Without the decorator there is no lock between
  // the execute stage and the SUT, so the lock wait reads 0.
  const StageBreakdown& stages = result.observability.stages;
  const auto stage = [&stages](Stage s) {
    return static_cast<double>(StageNanos(stages, s));
  };
  double sut_nanos = stage(Stage::kExecute);
  if (timed != nullptr) {
    const TimedSut::Totals sut = timed->totals();
    checks->Add("decorator_saw_every_element",
                sut.elements == events.size());
    sut_nanos = static_cast<double>(sut.nanos);
  }
  double loop_nanos = 0.0;
  for (const PhaseBoundary& b : result.boundaries) {
    loop_nanos += static_cast<double>(b.end_nanos - b.start_nanos) * workers;
  }
  layers.Num("sut.execute_ns", per_element(sut_nanos));
  layers.Num("sut.execute_share", Ratio(sut_nanos, loop_nanos));
  // The execute stage is the SUT plus the lock wait, reported below.
  layers.Num("core.loop_overhead_ns",
             per_element(loop_nanos - stage(Stage::kExecute) -
                         stage(Stage::kGenerate) - stage(Stage::kRecord)));
  layers.Num("core.lock_wait_ns",
             per_element(stage(Stage::kExecute) - sut_nanos));
  layers.Num("core.stage.generate_ns", per_element(stage(Stage::kGenerate)));
  layers.Num("core.stage.pace_ns", per_element(stage(Stage::kPace)));
  layers.Num("core.stage.execute_ns", per_element(stage(Stage::kExecute)));
  layers.Num("core.stage.record_ns", per_element(stage(Stage::kRecord)));

  // Admission queue.
  const ServiceMetrics& service = inside.service;
  int64_t peak_depth = 0;
  for (const auto& [name, value] : result.observability.metrics.gauges) {
    if (name == "service.queue_peak_depth") peak_depth = value;
  }
  layers.Num("core.service.queue_wait_p50_us",
             service.queue_wait.Quantile(0.5) * 1e-3);
  layers.Num("core.service.queue_wait_p99_us",
             service.queue_wait.Quantile(0.99) * 1e-3);
  layers.Num("core.service.shed_frac", service.shed_fraction);
  layers.Num("core.service.peak_depth", static_cast<double>(peak_depth));
  return layers;
}

/// The system a run drives: the workload's SUT, behind a TimedSut in a
/// traced run where TimesSutWithDecorator holds.
struct Target {
  std::unique_ptr<SystemUnderTest> sut;
  std::unique_ptr<TimedSut> timed;  ///< Null unless the SUT is timed.

  SystemUnderTest* get() const {
    return timed != nullptr ? timed.get() : sut.get();
  }
};

Target MakeTarget(const Workload& workload, const RunSpec& spec,
                  const Clock* clock, bool traced) {
  Target target;
  target.sut = workload.make_sut(clock);
  if (traced && TimesSutWithDecorator(spec, *target.sut)) {
    target.timed = std::make_unique<TimedSut>(target.sut.get());
  }
  return target;
}

int RunRepetition(const Workload& workload, uint64_t seed, bool traced) {
  const RealClock clock;
  const int64_t start = clock.NowNanos();
  RunSpec spec = workload.build_spec(seed, 1);
  const int64_t generated = clock.NowNanos();
  spec.observability.profile = traced;
  Target target = MakeTarget(workload, spec, &clock, traced);

  DriverOptions options;
  options.enforce_holdout_once = false;
  BenchmarkDriver driver(&clock, options);
  const int64_t run_start = clock.NowNanos();
  Result<RunResult> run = driver.Run(spec, target.get());
  const int64_t run_end = clock.NowNanos();
  if (!run.ok()) {
    std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  RunResult result = std::move(run).value();
  const double peak_rss = PeakRssMiB();

  // Set-up ends at the first op: data generation, SUT construction, Load,
  // offline Train, and the driver's per-worker set-up before phase 0. The
  // rest of Run() -- the phases, the shard merge and the metrics pass -- is
  // the time the elements took.
  const double load_s = result.load_seconds;
  const double offline_train_s = result.OfflineTrainSeconds();
  const double prephase_s =
      NanosToSeconds(result.boundaries.front().start_nanos);
  const double run_s = NanosToSeconds(run_end - run_start) - load_s -
                       offline_train_s - prephase_s;
  const double setup_s = NanosToSeconds(run_end - start) - run_s;
  const RunMetrics& metrics = result.metrics;
  const Histogram& latency = UserLatency(spec, metrics);
  const uint64_t elements = result.events.size();
  // Failures include queue sheds, so only served elements count as done.
  const uint64_t failed = metrics.resilience.failed_operations;
  const SutStats& stats = result.final_sut_stats;

  Checks checks;
  CheckAccounting(workload, spec, result, &checks);

  Json e2e;
  e2e.Num("setup_s", setup_s);
  e2e.Num("throughput",
          Ratio(static_cast<double>(elements - failed), run_s));
  e2e.Num("latency_p50_us", latency.Quantile(0.5) * 1e-3);
  e2e.Num("latency_p99_us", latency.Quantile(0.99) * 1e-3);
  e2e.Int("latency_samples", latency.count());
  e2e.Num("train_s", offline_train_s + stats.online_train_seconds);
  e2e.Num("failed_frac",
          Ratio(static_cast<double>(failed), static_cast<double>(elements)));
  e2e.Num("peak_rss_mb", peak_rss);
  e2e.Num("run_s", run_s);

  Json out;
  out.Str("workload", workload.name);
  out.Int("seed", seed);
  out.Bool("traced", traced);
  out.Str("clock", "real");
  out.Obj("host", DescribeHost());
  out.Obj("sizes", DescribeSizes(spec));
  out.Int("attempted", elements);
  out.Int("failed", failed);
  out.Obj("metrics", e2e);

  if (traced) {
    Json layers = MeasureLayers(spec, result, target.timed.get(), &checks);
    layers.Num("data.generate_s", NanosToSeconds(generated - start));
    layers.Num("sut.load_s", load_s);
    layers.Num("learned.offline_train_s", offline_train_s);
    layers.Num("core.prephase_s", prephase_s);
    layers.Num("learned.model_error", stats.model_error);
    layers.Num("sut.memory_mb",
               static_cast<double>(stats.memory_bytes) / (1 << 20));
    layers.Num("learned.retrains", static_cast<double>(stats.retrain_events));
    layers.Num("learned.online_train_s", stats.online_train_seconds);
    const auto* learned =
        dynamic_cast<const LearnedKvSystem*>(target.sut.get());
    layers.Num("learned.delta_size",
               learned != nullptr
                   ? static_cast<double>(learned->delta_size())
                   : 0.0);

    // The index alone, on the workload's own keys. The run's events and
    // SUT are released first so the probe's copy of the index fits.
    result = RunResult();
    target.timed.reset();
    target.sut.reset();
    std::unique_ptr<KvIndex> index = workload.make_index();
    const IndexProbe probe =
        ProbeIndexGets(index.get(), spec.datasets.front().keys, seed);
    checks.Add("index_probe_finds_every_key", probe.all_found);
    layers.Num("index.get_ns", probe.ns_per_get);
    out.Obj("layers", layers);
  }

  out.Bool("ok", checks.passed());
  out.Obj("checks", checks.json());
  std::printf("%s\n", out.str().c_str());
  return checks.passed() ? 0 : 1;
}

/// Serialized event stream of one simulated run, bare or traced.
std::optional<std::string> SimulatedEvents(const Workload& workload,
                                           const RunSpec& base, bool traced) {
  VirtualClock clock;
  RunSpec spec = base;
  spec.observability.profile = traced;
  const Target target = MakeTarget(workload, spec, &clock, traced);

  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 2000;
  options.enforce_holdout_once = false;
  BenchmarkDriver driver(&clock, options);
  Result<RunResult> run = driver.Run(spec, target.get());
  if (!run.ok()) {
    std::fprintf(stderr, "simulated run failed: %s\n",
                 run.status().ToString().c_str());
    return std::nullopt;
  }
  return SerializeEventStream(run.value().events);
}

int RunSelfTest(const Workload& workload, uint64_t seed) {
  const RunSpec spec = workload.build_spec(seed, kSelfTestScale);
  const std::optional<std::string> bare =
      SimulatedEvents(workload, spec, false);
  const std::optional<std::string> traced =
      SimulatedEvents(workload, spec, true);
  const bool identical =
      bare.has_value() && traced.has_value() && *bare == *traced;
  Json out;
  out.Str("workload", workload.name);
  out.Int("seed", seed);
  out.Int("scale", kSelfTestScale);
  out.Str("clock", "virtual");
  out.Obj("host", DescribeHost());
  out.Obj("sizes", DescribeSizes(spec));
  out.Int("stream_bytes", bare.has_value() ? bare->size() : 0);
  out.Bool("identical", identical);
  std::printf("%s\n", out.str().c_str());
  return identical ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: lsbench_benchmark --workload NAME --seed N [--traced]\n"
               "       lsbench_benchmark --workload NAME --seed N "
               "--self-test\n");
  return 2;
}

std::optional<uint64_t> ParseCount(const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return std::nullopt;
  return static_cast<uint64_t>(value);
}

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::optional<uint64_t> seed;
  bool traced = false;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = FindWorkload(argv[++i]);
      if (workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--seed" && has_value) {
      seed = ParseCount(argv[++i]);
      if (!seed.has_value()) return Usage();
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || !seed.has_value()) return Usage();
  return self_test ? RunSelfTest(*workload, *seed)
                   : RunRepetition(*workload, *seed, traced);
}

}  // namespace
}  // namespace bm
}  // namespace lsbench

int main(int argc, char** argv) { return lsbench::bm::Main(argc, argv); }
