#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/comparison.h"
#include "core/driver.h"
#include "core/event_sink.h"
#include "core/spec_text.h"
#include "data/dataset.h"
#include "report/report.h"
#include "sut/systems.h"
#include "util/random.h"
#include "workload/trace.h"

namespace lsbench {
namespace {

RunSpec SmallSpec() {
  RunSpec spec;
  spec.name = "cmp_test";
  DatasetOptions options;
  options.num_keys = 3000;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  PhaseSpec phase;
  phase.name = "p0";
  phase.mix = OperationMix::ReadMostly();
  phase.num_operations = 1500;
  spec.phases.push_back(phase);
  spec.interval_nanos = 50000000;
  spec.boxplot_sample_nanos = 5000000;
  return spec;
}

// ---------------------------------------------------------------------------
// Comparison harness
// ---------------------------------------------------------------------------

TEST(ComparisonTest, RunsAllSystemsAndRanks) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BTreeSystem btree;
  LearnedKvSystem learned;
  const Result<ComparisonReport> report = CompareSystems(
      SmallSpec(), {&btree, &learned}, &clock, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().rows.size(), 2u);
  ASSERT_EQ(report.value().results.size(), 2u);
  EXPECT_EQ(report.value().rows[0].sut_name, "btree_system");
  EXPECT_GT(report.value().rows[0].mean_throughput, 0.0);
  // Learned system trained; traditional did not.
  EXPECT_EQ(report.value().rows[0].retrain_events, 0u);
  // In simulation mode training takes zero virtual time but is recorded.
  EXPECT_EQ(report.value().results[1].train_events.size(), 1u);
  const size_t best = report.value().BestThroughputIndex();
  EXPECT_LT(best, 2u);
}

TEST(ComparisonTest, EmptySystemListRejected) {
  EXPECT_TRUE(CompareSystems(SmallSpec(), {}).status().IsInvalidArgument());
}

TEST(ComparisonTest, RenderContainsAllSystems) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BTreeSystem a;
  AdaptiveKvSystem b;
  const ComparisonReport report =
      CompareSystems(SmallSpec(), {&a, &b}, &clock, options).value();
  const Table table = ComparisonTable(report);
  const std::string text = TableText(table);
  EXPECT_NE(text.find("btree_system"), std::string::npos);
  EXPECT_NE(text.find("adaptive_system"), std::string::npos);
  // The best_throughput flag marks exactly the fastest system.
  ASSERT_EQ(table.rows.size(), 2u);
  for (size_t i = 0; i < table.rows.size(); ++i) {
    EXPECT_EQ(table.rows[i].back().Raw(),
              i == report.BestThroughputIndex() ? "1" : "0");
  }
}

// ---------------------------------------------------------------------------
// Trace record / serialize
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordCapturesMix) {
  DatasetOptions options;
  options.num_keys = 2000;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  PhaseSpec phase;
  phase.mix.get = 0.5;
  phase.mix.insert = 0.5;
  const OperationTrace trace = RecordTrace(ds, phase, 4000, 7).value();
  EXPECT_EQ(trace.size(), 4000u);
  const auto hist = trace.TypeHistogram();
  EXPECT_NEAR(static_cast<double>(hist[static_cast<int>(OpType::kGet)]),
              2000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(hist[static_cast<int>(OpType::kInsert)]),
              2000.0, 200.0);
}

TEST(TraceTest, CsvRoundTrip) {
  DatasetOptions options;
  options.num_keys = 500;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  PhaseSpec phase;
  phase.mix.get = 0.4;
  phase.mix.scan = 0.2;
  phase.mix.range_count = 0.4;
  const OperationTrace trace = RecordTrace(ds, phase, 300, 11).value();

  const std::string csv = trace.ToCsv();
  const Result<OperationTrace> parsed = OperationTrace::FromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const Operation& a = trace.operations()[i];
    const Operation& b = parsed.value().operations()[i];
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.range_end, b.range_end);
    EXPECT_EQ(a.scan_length, b.scan_length);
    EXPECT_EQ(a.value, b.value);
  }
}

/// The FromCsv error for `csv`, which must be rejected as InvalidArgument.
std::string CsvError(const std::string& csv) {
  const Result<OperationTrace> parsed = OperationTrace::FromCsv(csv);
  EXPECT_TRUE(parsed.status().IsInvalidArgument()) << csv;
  return parsed.status().message();
}

::testing::AssertionResult Names(const std::string& message,
                                 const std::string& part) {
  if (message.find(part) != std::string::npos) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "\"" << message << "\" does not name \"" << part << "\"";
}

TEST(TraceTest, FromCsvRejectsGarbage) {
  const std::string header = "type,key,range_end,scan_length,value\n";
  // Every error names its row (the header is row 0) and, where one
  // applies, its field.
  EXPECT_TRUE(Names(CsvError(""), "row 0"));
  EXPECT_TRUE(Names(CsvError("a,b,c\n1,2,3\n"), "row 0"));
  EXPECT_TRUE(Names(CsvError(header + "get,1,2,3,4\nget,1,2\n"), "row 2"));
  EXPECT_TRUE(Names(CsvError(header + "get,1,2,3,\"4\n"), "row 1"));
  const std::string unknown = CsvError(header + "bogus,1,2,3,4\n");
  EXPECT_TRUE(Names(unknown, "row 1, field type"));
  EXPECT_TRUE(Names(unknown, "bogus"));
  EXPECT_TRUE(Names(CsvError(header + "get,1,2,3,4\nget,xx,2,3,4\n"),
                    "row 2, field key"));
  EXPECT_TRUE(Names(CsvError(header + "get,1,-2,3,4\n"),
                    "row 1, field range_end"));
  EXPECT_TRUE(Names(CsvError(header + "scan,1,2,4294967296,4\n"),
                    "row 1, field scan_length"));
  EXPECT_TRUE(Names(CsvError(header + "get,1,2,3,99999999999999999999\n"),
                    "row 1, field value"));
  // Batch rows carry no payload in CSV: rejected, never replayed as
  // zero-element no-ops.
  EXPECT_TRUE(Names(CsvError(header + "batch_get,1,0,0,0\n"),
                    "row 1, field type"));
  EXPECT_TRUE(Names(CsvError(header + "get,1,0,0,0\nbatch_put,1,0,0,0\n"),
                    "scalar-only"));

  // Recording a batch phase is refused for the same reason: the payload
  // would point into the recording generator's ring.
  DatasetOptions options;
  options.num_keys = 500;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  PhaseSpec batch;
  batch.mix.get = 0.5;
  batch.mix.batch_get = 0.5;
  EXPECT_TRUE(RecordTrace(ds, batch, 10, 1).status().IsInvalidArgument());
  batch.mix.batch_get = 0.0;
  batch.mix.batch_put = 0.1;
  EXPECT_TRUE(RecordTrace(ds, batch, 10, 1).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Trace phases: a recorded trace replayed through BenchmarkDriver
// ---------------------------------------------------------------------------

RunSpec GeneratedSpec(ArrivalPattern arrival) {
  RunSpec spec;
  spec.name = "replay_spec";
  spec.seed = 11;
  DatasetOptions options;
  options.num_keys = 3000;
  options.seed = 5;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  PhaseSpec phase;
  phase.name = "p0";
  phase.mix.get = 0.6;
  phase.mix.insert = 0.2;
  phase.mix.del = 0.1;
  phase.mix.scan = 0.1;
  phase.num_operations = 2000;
  phase.arrival = arrival;
  phase.arrival_rate_qps = 5000.0;
  spec.phases.push_back(phase);
  spec.interval_nanos = 50000000;
  spec.boxplot_sample_nanos = 5000000;
  return spec;
}

std::shared_ptr<const OperationTrace> Record(const RunSpec& spec,
                                             size_t phase, uint64_t seed) {
  const PhaseSpec& p = spec.phases[phase];
  return std::make_shared<const OperationTrace>(
      RecordTrace(spec.datasets[p.dataset_index], p, p.num_operations, seed)
          .value());
}

Result<RunResult> RunSim(const RunSpec& spec, SystemUnderTest* sut) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  return driver.Run(spec, sut);
}

TEST(ReplayTest, TracePhaseReplaysItsGeneratedPhaseByteForByte) {
  for (ArrivalPattern arrival :
       {ArrivalPattern::kClosedLoop, ArrivalPattern::kPoisson}) {
    const RunSpec generated = GeneratedSpec(arrival);
    // Phase 0's generator seed is the run seed's first fork; its arrival
    // stream forks independently, so it is drawn identically either way.
    RunSpec replayed = generated;
    PhaseSpec& phase = replayed.phases[0];
    phase.trace = Record(generated, 0, Rng(generated.seed).Fork(1).Next());
    // Generator knobs are ignored by a trace phase.
    phase.mix = OperationMix::ScanHeavy();
    phase.access = AccessPattern::kUniform;

    BTreeSystem a;
    BTreeSystem b;
    const Result<RunResult> gen_run = RunSim(generated, &a);
    const Result<RunResult> trace_run = RunSim(replayed, &b);
    ASSERT_TRUE(gen_run.ok()) << gen_run.status().ToString();
    ASSERT_TRUE(trace_run.ok()) << trace_run.status().ToString();
    ASSERT_EQ(gen_run.value().events.size(), 2000u);
    EXPECT_EQ(SerializeEventStream(gen_run.value().events),
              SerializeEventStream(trace_run.value().events))
        << ArrivalPatternToString(arrival);
  }
}

TEST(ReplayTest, SameTraceSameOutcomesAcrossSystems) {
  RunSpec spec = GeneratedSpec(ArrivalPattern::kClosedLoop);
  spec.phases[0].num_operations = 3000;
  spec.phases[0].trace = Record(spec, 0, 13);

  BTreeSystem btree;
  LearnedKvSystem learned;
  const RunResult a = RunSim(spec, &btree).value();
  const RunResult b = RunSim(spec, &learned).value();
  ASSERT_EQ(a.events.size(), 3000u);
  ASSERT_EQ(b.events.size(), 3000u);
  // Same logical outcome per operation regardless of the engine.
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].type, spec.phases[0].trace->operations()[i].type);
    EXPECT_EQ(a.events[i].ok, b.events[i].ok) << "op " << i;
    EXPECT_EQ(a.events[i].rows, b.events[i].rows) << "op " << i;
  }
}

TEST(ReplayTest, MetricsPopulated) {
  RunSpec spec = GeneratedSpec(ArrivalPattern::kClosedLoop);
  spec.phases[0].num_operations = 500;
  spec.phases[0].trace = Record(spec, 0, 17);
  BTreeSystem sut;
  const RunResult run = RunSim(spec, &sut).value();
  EXPECT_EQ(run.metrics.total_operations, 500u);
  EXPECT_GT(run.metrics.mean_throughput, 0.0);
  ASSERT_EQ(run.boundaries.size(), 1u);
  EXPECT_EQ(run.boundaries[0].operations, 500u);
}

TEST(ReplayTest, FanOutReplaysEveryEntryOnce) {
  RunSpec spec = GeneratedSpec(ArrivalPattern::kClosedLoop);
  spec.phases[0].num_operations = 2003;  // Uneven worker shares.
  spec.phases[0].trace = Record(spec, 0, 19);
  spec.execution.workers = 4;

  BTreeSystem a;
  BTreeSystem b;
  const RunResult first = RunSim(spec, &a).value();
  const RunResult second = RunSim(spec, &b).value();
  std::vector<uint64_t> counts(kNumOpTypes, 0);
  for (const OpEvent& e : first.events) ++counts[static_cast<int>(e.type)];
  EXPECT_EQ(counts, spec.phases[0].trace->TypeHistogram());
  EXPECT_EQ(first.boundaries[0].operations, 2003u);
  EXPECT_EQ(SerializeEventStream(first.events),
            SerializeEventStream(second.events));
}

TEST(ReplayTest, ServiceModeWithFaultsShedsAndRetries) {
  RunSpec spec = GeneratedSpec(ArrivalPattern::kPoisson);
  // Four times the simulated capacity (100 us per executed op).
  spec.phases[0].arrival_rate_qps = 40000.0;
  spec.phases[0].trace = Record(spec, 0, 23);
  spec.service.enabled = true;
  spec.service.queue_capacity = 8;
  FaultWindow window;
  window.phase = 0;
  window.execute_fail_rate = 0.3;
  spec.faults.windows.push_back(window);
  spec.resilience.max_retries = 2;

  BTreeSystem sut;
  const Result<RunResult> run = RunSim(spec, &sut);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().events.size(), 2000u);
  uint64_t queue_sheds = 0;
  uint64_t retries = 0;
  for (const OpEvent& e : run.value().events) {
    queue_sheds += e.queue_shed ? 1 : 0;
    retries += e.retries;
  }
  EXPECT_GT(queue_sheds, 0u);
  EXPECT_GT(retries, 0u);
}

/// The Validate error for `spec`, which must be rejected as InvalidArgument
/// by the driver too.
std::string ValidateError(const RunSpec& spec) {
  BTreeSystem sut;
  EXPECT_TRUE(RunSim(spec, &sut).status().IsInvalidArgument());
  return spec.Validate().message();
}

RunSpec TwoPhaseTraceSpec() {
  RunSpec spec = GeneratedSpec(ArrivalPattern::kClosedLoop);
  spec.phases[0].num_operations = 100;
  spec.phases.push_back(spec.phases[0]);
  spec.phases[1].name = "p1";
  spec.phases[1].transition_in = TransitionKind::kLinear;
  return spec;
}

TEST(ReplayTest, EmptyTraceRejected) {
  RunSpec spec = GeneratedSpec(ArrivalPattern::kClosedLoop);
  spec.phases[0].trace = std::make_shared<const OperationTrace>();
  EXPECT_TRUE(Names(ValidateError(spec), "phase 0 replays an empty trace"));
}

TEST(ReplayTest, TraceLengthMismatchRejected) {
  RunSpec spec = GeneratedSpec(ArrivalPattern::kClosedLoop);
  spec.phases[0].trace = Record(spec, 0, 1);
  spec.phases[0].num_operations = 1999;
  const std::string error = ValidateError(spec);
  EXPECT_TRUE(Names(error, "phase 0"));
  EXPECT_TRUE(Names(error, "1999"));
  EXPECT_TRUE(Names(error, "2000"));
}

TEST(ReplayTest, BlendIntoTracePhaseRejected) {
  RunSpec spec = TwoPhaseTraceSpec();
  spec.phases[1].trace = Record(spec, 1, 1);
  spec.phases[1].transition_operations = 10;
  EXPECT_TRUE(Names(ValidateError(spec), "phase 1 declares a transition"));
}

TEST(ReplayTest, BlendOutOfTracePhaseRejected) {
  RunSpec spec = TwoPhaseTraceSpec();
  spec.phases[0].trace = Record(spec, 0, 1);
  spec.phases[1].transition_operations = 10;
  EXPECT_TRUE(Names(ValidateError(spec), "phase 1 declares a transition"));
  // Without the blend the same sequence runs.
  spec.phases[1].transition_operations = 0;
  BTreeSystem sut;
  EXPECT_TRUE(RunSim(spec, &sut).ok());
}

TEST(ReplayTest, TraceEntriesAreTheHoldoutIdentity) {
  BenchmarkDriver::ResetHoldoutRegistryForTesting();
  RunSpec spec = GeneratedSpec(ArrivalPattern::kClosedLoop);
  spec.name = "hidden_trace";
  spec.phases[0].num_operations = 200;
  spec.phases[0].holdout = true;
  spec.phases[0].trace = Record(spec, 0, 29);

  // The same entries in a separate trace object: the same identity.
  RunSpec same = spec;
  same.phases[0].trace =
      std::make_shared<const OperationTrace>(*spec.phases[0].trace);
  EXPECT_EQ(same.StructuralHash(), spec.StructuralHash());

  // One key changed: a different hidden trace, a different identity.
  OperationTrace edited;
  const std::vector<Operation>& ops = spec.phases[0].trace->operations();
  for (size_t i = 0; i < ops.size(); ++i) {
    Operation op = ops[i];
    if (i + 1 == ops.size()) ++op.key;
    edited.Append(op);
  }
  RunSpec other = spec;
  other.phases[0].trace = std::make_shared<const OperationTrace>(edited);
  EXPECT_NE(other.StructuralHash(), spec.StructuralHash());

  BTreeSystem a;
  BTreeSystem b;
  BTreeSystem c;
  EXPECT_TRUE(RunSim(spec, &a).ok());
  EXPECT_TRUE(RunSim(same, &b).status().IsFailedPrecondition());
  EXPECT_TRUE(RunSim(other, &c).ok());
}

TEST(ReplayTest, RenderRefusesTracePhases) {
  RunSpec spec = GeneratedSpec(ArrivalPattern::kClosedLoop);
  spec.dataset_sources.resize(spec.datasets.size());
  ASSERT_TRUE(RenderRunSpecText(spec).ok());
  spec.phases[0].trace = Record(spec, 0, 1);
  EXPECT_TRUE(RenderRunSpecText(spec).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace lsbench
