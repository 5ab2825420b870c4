// Unit tests for the observability layer: tracer shard merging, the metrics
// registry and its histogram shard merge, the per-phase stage-time
// breakdown merge, and the --trace-out file.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// Tracer + trace merge
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(0);
  EXPECT_FALSE(tracer.enabled());
  tracer.Record("x", 0, 1);
  { ScopedSpan span(&tracer, "y"); }
  { ScopedSpan span(nullptr, "z"); }
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TracerTest, BoundTracerStampsProvenance) {
  VirtualClock clock;
  clock.SetNanos(1000);
  Tracer tracer(3);
  tracer.Bind(&clock, 1000);
  tracer.set_phase(2);
  {
    ScopedSpan span(&tracer, "work");
    clock.AdvanceNanos(500);
  }
  TraceStream spans = tracer.TakeSpans();
  ASSERT_EQ(spans.size(), 1u);
  const TraceSpan& span = spans[0];
  EXPECT_STREQ(span.name, "work");
  EXPECT_EQ(span.start_nanos, 0);
  EXPECT_EQ(span.end_nanos, 500);
  EXPECT_EQ(span.phase, 2);
  EXPECT_EQ(span.worker, 3u);
  EXPECT_EQ(span.seq, 0u);
}

TraceSpan MakeSpan(int64_t start, uint32_t worker, uint64_t seq) {
  TraceSpan span;
  span.name = "s";
  span.start_nanos = start;
  span.end_nanos = start + 1;
  span.worker = worker;
  span.seq = seq;
  return span;
}

TEST(TraceMergeTest, OrdersByStartWorkerSeq) {
  TraceStream shard0 = {MakeSpan(10, 0, 0), MakeSpan(30, 0, 1)};
  TraceStream shard1 = {MakeSpan(10, 1, 0), MakeSpan(20, 1, 1)};
  const TraceStream merged = MergeTraceShards({shard0, shard1});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].worker, 0u);  // (10, 0, 0)
  EXPECT_EQ(merged[1].worker, 1u);  // (10, 1, 0)
  EXPECT_EQ(merged[2].start_nanos, 20);
  EXPECT_EQ(merged[3].start_nanos, 30);
}

TEST(TraceMergeTest, ShardOrderDoesNotMatter) {
  TraceStream shard0 = {MakeSpan(10, 0, 0), MakeSpan(15, 0, 1)};
  TraceStream shard1 = {MakeSpan(5, 1, 0), MakeSpan(15, 1, 1)};
  TraceStream driver = {MakeSpan(15, kDriverTraceWorker, 0)};
  ObsReport a;
  a.trace = MergeTraceShards({shard0, shard1, driver});
  ObsReport b;
  b.trace = MergeTraceShards({driver, shard1, shard0});
  EXPECT_EQ(RenderTraceFile(a, "run", "sut", 2),
            RenderTraceFile(b, "run", "sut", 2));
  // Driver spans sort after every real worker at equal timestamps.
  EXPECT_EQ(a.trace.back().worker, kDriverTraceWorker);
}

// ---------------------------------------------------------------------------
// Counters, gauges, registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAndGauges) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ops");
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);
  // Same name -> same instrument (pointer-stable).
  EXPECT_EQ(registry.GetCounter("ops"), counter);

  Gauge* gauge = registry.GetGauge("depth");
  gauge->Set(7);
  gauge->Add(-2);
  EXPECT_EQ(gauge->value(), 5);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "ops");
  EXPECT_EQ(snap.counters[0].second, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 5);
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted) {
  MetricsRegistry registry;
  registry.GetCounter("zebra")->Increment();
  registry.GetCounter("alpha")->Increment();
  registry.GetCounter("mid")->Increment();
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zebra");
}

// ---------------------------------------------------------------------------
// Registry histograms + shard merge
// ---------------------------------------------------------------------------

TEST(LockedHistogramTest, SnapshotIsTheRecordedHistogram) {
  MetricsRegistry registry;
  LockedHistogram* hist = registry.GetHistogram("latency");
  EXPECT_EQ(registry.GetHistogram("latency"), hist);
  Histogram plain;
  for (const int64_t nanos : {5, 10, 11, 5000, 777777}) {
    hist->Record(nanos);
    plain.Record(static_cast<double>(nanos));
  }
  const Histogram snap = hist->Snapshot();
  EXPECT_EQ(snap.count(), 5u);
  EXPECT_EQ(snap.sum(), 5.0 + 10 + 11 + 5000 + 777777);
  EXPECT_EQ(snap.min(), 5.0);
  EXPECT_EQ(snap.max(), 777777.0);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(snap.Quantile(q), plain.Quantile(q)) << "q=" << q;
  }
}

TEST(MetricsMergeTest, ShardsSumByName) {
  MetricsRegistry worker0;
  MetricsRegistry worker1;
  worker0.GetCounter("executor.attempts")->Increment(10);
  worker1.GetCounter("executor.attempts")->Increment(5);
  worker1.GetCounter("executor.retries")->Increment(2);
  worker0.GetHistogram("latency")->Record(150);
  worker1.GetHistogram("latency")->Record(50);
  worker1.GetHistogram("retrain");  // Registered, never recorded.

  const MetricsSnapshot merged =
      MergeMetricsShards({worker0.Snapshot(), worker1.Snapshot()});
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].first, "executor.attempts");
  EXPECT_EQ(merged.counters[0].second, 15u);
  EXPECT_EQ(merged.counters[1].second, 2u);
  ASSERT_EQ(merged.histograms.size(), 2u);
  const Histogram& latency = merged.histograms[0].second;
  EXPECT_EQ(latency.count(), 2u);
  EXPECT_EQ(latency.min(), 50.0);
  EXPECT_EQ(latency.max(), 150.0);
  EXPECT_EQ(merged.histograms[1].first, "retrain");
  EXPECT_EQ(merged.histograms[1].second.count(), 0u);
}

// ---------------------------------------------------------------------------
// Stage profiler + breakdown merge
// ---------------------------------------------------------------------------

TEST(StageProfilerTest, DisabledProfilerIsANoOp) {
  StageProfiler profiler;
  EXPECT_FALSE(profiler.enabled());
  profiler.Add(Stage::kExecute, 100);
  { StageTimer timer(&profiler, Stage::kExecute); }
  { StageTimer timer(nullptr, Stage::kExecute); }
  EXPECT_TRUE(profiler.Breakdown().empty());
}

TEST(StageProfilerTest, ChargesTheCurrentPhase) {
  VirtualClock clock;
  StageProfiler profiler;
  profiler.Bind(&clock);
  profiler.set_phase(0);
  {
    StageTimer timer(&profiler, Stage::kExecute);
    clock.AdvanceNanos(100);
  }
  profiler.set_phase(1);
  {
    StageTimer timer(&profiler, Stage::kExecute);
    clock.AdvanceNanos(50);
  }
  profiler.Add(Stage::kGenerate, 7);

  const StageBreakdown breakdown = profiler.Breakdown();
  ASSERT_EQ(breakdown.size(), 2u);
  EXPECT_EQ(breakdown[0].phase, 0);
  EXPECT_EQ(
      breakdown[0].stages[static_cast<size_t>(Stage::kExecute)].total_nanos,
      100);
  EXPECT_EQ(breakdown[1].phase, 1);
  EXPECT_EQ(
      breakdown[1].stages[static_cast<size_t>(Stage::kExecute)].total_nanos,
      50);
  EXPECT_EQ(
      breakdown[1].stages[static_cast<size_t>(Stage::kGenerate)].samples, 1u);
}

TEST(StageBreakdownMergeTest, SumsPhaseByPhase) {
  PhaseStageBreakdown run_level;
  run_level.phase = PhaseStageBreakdown::kRunLevelPhase;
  run_level.stages[static_cast<size_t>(Stage::kLoad)] = {1000, 1};

  PhaseStageBreakdown phase0_a;
  phase0_a.phase = 0;
  phase0_a.stages[static_cast<size_t>(Stage::kExecute)] = {100, 10};
  PhaseStageBreakdown phase0_b;
  phase0_b.phase = 0;
  phase0_b.stages[static_cast<size_t>(Stage::kExecute)] = {50, 5};
  PhaseStageBreakdown phase1;
  phase1.phase = 1;
  phase1.stages[static_cast<size_t>(Stage::kPace)] = {30, 3};

  StageBreakdown target = {run_level, phase0_a};
  MergeStageBreakdown(&target, {phase0_b, phase1});
  ASSERT_EQ(target.size(), 3u);
  EXPECT_EQ(target[0].phase, PhaseStageBreakdown::kRunLevelPhase);
  EXPECT_EQ(target[1].phase, 0);
  EXPECT_EQ(
      target[1].stages[static_cast<size_t>(Stage::kExecute)].total_nanos,
      150);
  EXPECT_EQ(target[1].stages[static_cast<size_t>(Stage::kExecute)].samples,
            15u);
  EXPECT_EQ(target[2].phase, 1);
  EXPECT_EQ(target[2].stages[static_cast<size_t>(Stage::kPace)].samples, 3u);
}

TEST(StageBreakdownMergeTest, MergeIntoEmptyTargetCopies) {
  PhaseStageBreakdown phase0;
  phase0.phase = 0;
  phase0.stages[static_cast<size_t>(Stage::kRecord)] = {42, 6};
  StageBreakdown target;
  MergeStageBreakdown(&target, {phase0});
  ASSERT_EQ(target.size(), 1u);
  EXPECT_EQ(target[0].stages[static_cast<size_t>(Stage::kRecord)].total_nanos,
            42);
}

TEST(StageNameTest, EveryStageHasAName) {
  for (size_t s = 0; s < kNumStages; ++s) {
    EXPECT_FALSE(StageName(static_cast<Stage>(s)).empty());
  }
}

TEST(ObservabilitySpecTest, EnabledAndEquality) {
  ObservabilitySpec all_off;
  all_off.metrics = false;
  EXPECT_FALSE(all_off.Enabled());
  ObservabilitySpec defaults;
  EXPECT_TRUE(defaults.Enabled());  // metrics defaults on.
  EXPECT_FALSE(defaults == all_off);
}

TEST(RenderTraceFileTest, HistLinePrintsIntegerNanos) {
  MetricsRegistry registry;
  LockedHistogram* hist = registry.GetHistogram("lat");
  for (const int64_t nanos : {1000, 2000, 3001}) hist->Record(nanos);
  registry.GetHistogram("idle");
  ObsReport report;
  report.metrics = registry.Snapshot();
  const std::string payload = RenderTraceFile(report, "run", "sut", 1);
  EXPECT_NE(payload.find("hist idle count=0 sum=0\n"), std::string::npos)
      << payload;
  const Histogram snap = hist->Snapshot();
  const std::string line =
      "hist lat count=3 sum=6001 min=1000 max=3001 p50=" +
      std::to_string(std::llround(snap.Median())) +
      " p99=" + std::to_string(std::llround(snap.P99())) + "\n";
  EXPECT_NE(payload.find(line), std::string::npos) << payload;
}

TEST(RenderTraceFileTest, HeaderCarriesRunIdentity) {
  ObsReport report;
  report.trace.push_back(MakeSpan(1, 0, 0));
  const std::string payload = RenderTraceFile(report, "myrun", "mysut", 4);
  EXPECT_NE(payload.find("lsbench-trace v1"), std::string::npos);
  EXPECT_NE(payload.find("run=myrun"), std::string::npos);
  EXPECT_NE(payload.find("sut=mysut"), std::string::npos);
  EXPECT_NE(payload.find("workers=4"), std::string::npos);
}

}  // namespace
}  // namespace lsbench
