#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/event_sink.h"
#include "core/metrics.h"

namespace lsbench {
namespace {

constexpr int64_t kSecond = 1000000000;
constexpr int64_t kMilli = 1000000;

/// Events at a constant rate: `per_second` events/s for `seconds` seconds,
/// each with the given latency, starting at `start`.
EventStream ConstantRate(int64_t start, int seconds, int per_second,
                         int64_t latency, int phase = 0) {
  EventStream events;
  for (int s = 0; s < seconds; ++s) {
    for (int i = 0; i < per_second; ++i) {
      OpEvent e;
      e.timestamp_nanos =
          start + s * kSecond + (i * kSecond) / per_second;
      e.latency_nanos = latency;
      e.phase = phase;
      e.ok = true;
      events.push_back(e);
    }
  }
  return events;
}

/// The metrics of `events` run as one phase in 1 s intervals against a
/// fixed SLA threshold. The fold builds the Fig. 1c bands, and the Fig. 1b
/// cumulative curve is read off them, as in every reported run.
RunMetrics OnePhaseMetrics(const EventStream& events,
                           int64_t sla_nanos = kSecond) {
  const int64_t end = events.empty() ? 0 : events.back().timestamp_nanos;
  const std::vector<PhaseBoundary> boundaries = {
      {0, 0, end, false, events.size()}};
  MetricsOptions options;
  options.interval_nanos = kSecond;
  options.sla_nanos = sla_nanos;
  return ComputeRunMetrics(events, boundaries, options);
}

// ---------------------------------------------------------------------------
// Cumulative curves (Fig. 1b)
// ---------------------------------------------------------------------------

TEST(CumulativeCurveTest, CountsPerInterval) {
  const EventStream events = ConstantRate(0, 5, 100, kMilli);
  const auto curve = OnePhaseMetrics(events).cumulative;
  ASSERT_GE(curve.size(), 6u);
  EXPECT_EQ(curve.front().completed, 0u);
  EXPECT_EQ(curve[1].completed, 100u);
  EXPECT_EQ(curve[3].completed, 300u);
  EXPECT_EQ(curve.back().completed, 500u);
}

TEST(CumulativeCurveTest, EmptyStream) {
  const auto curve = OnePhaseMetrics({}).cumulative;
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_EQ(curve[0].completed, 0u);
}

TEST(AreaVsIdealTest, ConstantThroughputIsNearZero) {
  const EventStream events = ConstantRate(0, 10, 100, kMilli);
  const auto curve = OnePhaseMetrics(events).cumulative;
  const double area = AreaVsIdeal(curve);
  // Perfectly linear accumulation has ~0 area vs the ideal line.
  EXPECT_NEAR(area, 0.0, 60.0);  // 1000 events over 10s: tolerance 6%.
}

TEST(AreaVsIdealTest, SlowStartIsNegative) {
  // 5 s at 10/s then 5 s at 190/s: the curve sags below the ideal line.
  EventStream events = ConstantRate(0, 5, 10, kMilli);
  const EventStream fast = ConstantRate(5 * kSecond, 5, 190, kMilli);
  events.insert(events.end(), fast.begin(), fast.end());
  const auto curve = OnePhaseMetrics(events).cumulative;
  EXPECT_LT(AreaVsIdeal(curve), -100.0);
}

TEST(AreaVsIdealTest, FastStartIsPositive) {
  EventStream events = ConstantRate(0, 5, 190, kMilli);
  const EventStream slow = ConstantRate(5 * kSecond, 5, 10, kMilli);
  events.insert(events.end(), slow.begin(), slow.end());
  const auto curve = OnePhaseMetrics(events).cumulative;
  EXPECT_GT(AreaVsIdeal(curve), 100.0);
}

TEST(AreaBetweenCurvesTest, FasterSystemWins) {
  const auto fast =
      OnePhaseMetrics(ConstantRate(0, 10, 200, kMilli)).cumulative;
  const auto slow =
      OnePhaseMetrics(ConstantRate(0, 10, 100, kMilli)).cumulative;
  EXPECT_GT(AreaBetweenCurves(fast, slow), 100.0);
  EXPECT_LT(AreaBetweenCurves(slow, fast), -100.0);
  EXPECT_NEAR(AreaBetweenCurves(fast, fast), 0.0, 1e-6);
}

// ---------------------------------------------------------------------------
// SLA bands (Fig. 1c)
// ---------------------------------------------------------------------------

TEST(SlaBandsTest, SplitsByThreshold) {
  EventStream events;
  for (int i = 0; i < 10; ++i) {
    OpEvent e;
    e.timestamp_nanos = i * 100 * kMilli;  // All within the first second.
    e.latency_nanos = (i % 2 == 0) ? kMilli : 10 * kMilli;
    events.push_back(e);
  }
  const auto bands = OnePhaseMetrics(events, 5 * kMilli).bands;
  ASSERT_EQ(bands.size(), 1u);
  EXPECT_EQ(bands[0].within_sla, 5u);
  EXPECT_EQ(bands[0].violated, 5u);
  EXPECT_EQ(bands[0].Total(), 10u);
}

TEST(SlaBandsTest, MultipleIntervalsIncludingEmpty) {
  EventStream events;
  OpEvent early;
  early.timestamp_nanos = 100 * kMilli;
  early.latency_nanos = 1;
  events.push_back(early);
  OpEvent late;
  late.timestamp_nanos = 3 * kSecond + 500 * kMilli;
  late.latency_nanos = 1;
  events.push_back(late);
  const auto bands = OnePhaseMetrics(events, kMilli).bands;
  ASSERT_EQ(bands.size(), 4u);
  EXPECT_EQ(bands[0].Total(), 1u);
  EXPECT_EQ(bands[1].Total(), 0u);
  EXPECT_EQ(bands[2].Total(), 0u);
  EXPECT_EQ(bands[3].Total(), 1u);
  EXPECT_EQ(bands[2].start_nanos, 2 * kSecond);
}

TEST(SlaBandsTest, EmptyEvents) {
  EXPECT_TRUE(OnePhaseMetrics({}, kMilli).bands.empty());
}

TEST(CalibrateSlaTest, UsesPercentileTimesMargin) {
  std::vector<double> latencies;
  for (int i = 1; i <= 100; ++i) latencies.push_back(i * 1000.0);  // 1..100 us.
  const int64_t sla = CalibrateSla(latencies, 0.99, 2.0);
  // p99 of 1..100us is ~99.01us in the interpolated definition; x2 margin.
  EXPECT_NEAR(static_cast<double>(sla), 198020.0, 3000.0);
}

TEST(CalibrateSlaTest, EmptyFallsBack) {
  EXPECT_EQ(CalibrateSla({}, 0.99, 2.0), kMilli);
}

// ---------------------------------------------------------------------------
// Multi-threshold bands (§V-D2 extension)
// ---------------------------------------------------------------------------

TEST(MultiBandTest, ClassifiesByThreshold) {
  EventStream events;
  const int64_t lats[] = {kMilli / 2, kMilli, 2 * kMilli, 10 * kMilli};
  for (int i = 0; i < 4; ++i) {
    OpEvent e;
    e.timestamp_nanos = i * 10 * kMilli;
    e.latency_nanos = lats[i];
    events.push_back(e);
  }
  const auto bands =
      BuildMultiBands(events, kSecond, {kMilli, 4 * kMilli});
  ASSERT_EQ(bands.size(), 1u);
  ASSERT_EQ(bands[0].counts.size(), 3u);
  EXPECT_EQ(bands[0].counts[0], 2u);  // <= 1 ms (inclusive).
  EXPECT_EQ(bands[0].counts[1], 1u);  // <= 4 ms.
  EXPECT_EQ(bands[0].counts[2], 1u);  // Above.
  EXPECT_EQ(bands[0].Total(), 4u);
}

TEST(MultiBandTest, TotalsMatchSimpleBands) {
  EventStream events = ConstantRate(0, 3, 50, kMilli);
  for (size_t i = 0; i < events.size(); i += 7) {
    events[i].latency_nanos = 20 * kMilli;
  }
  const auto simple = OnePhaseMetrics(events, 5 * kMilli).bands;
  const auto multi = BuildMultiBands(events, kSecond, {kMilli, 5 * kMilli});
  ASSERT_EQ(simple.size(), multi.size());
  for (size_t i = 0; i < simple.size(); ++i) {
    EXPECT_EQ(simple[i].Total(), multi[i].Total());
    // Violations = the class above the SLA threshold.
    EXPECT_EQ(simple[i].violated, multi[i].counts[2]);
  }
}

TEST(MultiBandTest, EmptyEvents) {
  EXPECT_TRUE(BuildMultiBands({}, kSecond, {kMilli}).empty());
}

// ---------------------------------------------------------------------------
// Full metric computation
// ---------------------------------------------------------------------------

TEST(RunMetricsTest, TwoPhaseRunEndToEnd) {
  // Phase 0: 5 s at 100/s, 1 ms latency. Phase 1: 5 s at 50/s with a slow
  // patch at the start (simulating a retraining stall after a shift).
  EventStream events = ConstantRate(0, 5, 100, kMilli, /*phase=*/0);
  EventStream p1 = ConstantRate(5 * kSecond, 5, 50, kMilli, /*phase=*/1);
  // First 100 events of phase 1 are 50x over SLA.
  for (size_t i = 0; i < 100; ++i) p1[i].latency_nanos = 100 * kMilli;
  events.insert(events.end(), p1.begin(), p1.end());

  std::vector<PhaseBoundary> boundaries(2);
  boundaries[0] = {0, 0, 5 * kSecond, false, 500};
  boundaries[1] = {1, 5 * kSecond, 10 * kSecond, false, 250};

  MetricsOptions options;
  options.sla_nanos = 10 * kMilli;
  options.adjustment_window_ops = 200;
  const RunMetrics m = ComputeRunMetrics(events, boundaries, options);

  EXPECT_EQ(m.total_operations, 750u);
  EXPECT_NEAR(m.wall_seconds, 10.0, 0.1);
  EXPECT_NEAR(m.mean_throughput, 75.0, 2.0);
  EXPECT_EQ(m.sla_nanos, 10 * kMilli);
  EXPECT_EQ(m.total_sla_violations, 100u);

  ASSERT_EQ(m.phases.size(), 2u);
  EXPECT_EQ(m.phases[0].operations, 500u);
  EXPECT_EQ(m.phases[0].sla_violations, 0u);
  EXPECT_NEAR(m.phases[0].mean_throughput, 100.0, 1.0);
  EXPECT_EQ(m.phases[1].operations, 250u);
  EXPECT_EQ(m.phases[1].sla_violations, 100u);
  // Adjustment excess: 100 events x (100ms - 10ms) = 9 s.
  EXPECT_NEAR(m.phases[1].adjustment_excess_seconds, 9.0, 0.01);
  EXPECT_NEAR(m.phases[0].adjustment_excess_seconds, 0.0, 1e-9);

  // Box plots: phase 0 sampled at ~100 ops/s in every subinterval.
  EXPECT_NEAR(m.phases[0].throughput_box.median, 100.0, 15.0);
  EXPECT_GT(m.phases[0].throughput_box.count, 10u);

  // Cumulative curve ends at the total.
  EXPECT_EQ(m.cumulative.back().completed, 750u);
  EXPECT_FALSE(m.bands.empty());
}

TEST(RunMetricsTest, AutoSlaCalibrationUsesPhaseZero) {
  EventStream events = ConstantRate(0, 2, 100, kMilli, 0);
  const EventStream p1 = ConstantRate(2 * kSecond, 2, 100, 50 * kMilli, 1);
  events.insert(events.end(), p1.begin(), p1.end());
  std::vector<PhaseBoundary> boundaries(2);
  boundaries[0] = {0, 0, 2 * kSecond, false, 200};
  boundaries[1] = {1, 2 * kSecond, 4 * kSecond, false, 200};

  MetricsOptions options;
  options.sla_nanos = 0;  // Calibrate from phase 0 (1 ms * 2 = 2 ms).
  const RunMetrics m = ComputeRunMetrics(events, boundaries, options);
  EXPECT_NEAR(static_cast<double>(m.sla_nanos), 2.0 * kMilli,
              0.1 * kMilli);
  EXPECT_EQ(m.phases[0].sla_violations, 0u);
  EXPECT_EQ(m.phases[1].sla_violations, 200u);  // All of phase 1 violates.
}

TEST(RunMetricsTest, NonContiguousPhasesCountEveryEvent) {
  // A merged stream can interleave phases where completions tie across
  // workers at a phase barrier. Every event still counts under its phase.
  EventStream events(6);
  const int32_t phases[] = {0, 0, 1, 0, 1, 1};
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].timestamp_nanos = static_cast<int64_t>(i / 2) * kMilli;
    events[i].latency_nanos = kMilli;
    events[i].phase = phases[i];
    events[i].worker = static_cast<uint32_t>(i % 2);
    events[i].seq = i / 2;
    events[i].ok = true;
  }
  std::vector<PhaseBoundary> boundaries(2);
  boundaries[0] = {0, 0, kMilli, false, 3};
  boundaries[1] = {1, kMilli, 3 * kMilli, false, 3};
  MetricsOptions options;
  options.sla_nanos = 2 * kMilli;
  const RunMetrics m = ComputeRunMetrics(events, boundaries, options);
  EXPECT_EQ(m.total_operations, 6u);
  ASSERT_EQ(m.phases.size(), 2u);
  EXPECT_EQ(m.phases[0].operations, 3u);
  EXPECT_EQ(m.phases[1].operations, 3u);
  EXPECT_EQ(m.phases[0].latency.count() + m.phases[1].latency.count(), 6u);
}

TEST(RunMetricsTest, FoldRejectsPhaseWithoutBoundary) {
  EventStream events = ConstantRate(0, 1, 10, kMilli, 0);
  events[4].phase = 7;
  events[4].worker = 2;
  events[4].seq = 4;
  std::vector<PhaseBoundary> boundaries(1);
  boundaries[0] = {0, 0, kSecond, false, 10};
  const MetricsOptions options;
  ShardAccumulation acc(boundaries, options, kMilli);
  const Status status = acc.Accumulate(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(),
            "event worker 2 seq 4 at t=400000000 ns has phase 7, which has "
            "no phase boundary");
  EXPECT_DEATH(ComputeRunMetrics(events, boundaries, options),
               "has phase 7, which has no phase boundary");
}

TEST(RunMetricsTest, FoldRejectsOutOfOrderEvents) {
  EventStream events = ConstantRate(0, 1, 10, kMilli, 0);
  std::swap(events[2], events[5]);
  std::vector<PhaseBoundary> boundaries(1);
  boundaries[0] = {0, 0, kSecond, false, 10};
  ShardAccumulation acc(boundaries, MetricsOptions(), kMilli);
  const Status status = acc.Accumulate(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(),
            "event out of order: worker 0 seq 0 at t=300000000 ns follows "
            "worker 0 seq 0 at t=500000000 ns; events must be in "
            "(timestamp, worker, seq) order");
}

// A unit recorded twice repeats its (timestamp, worker, seq). The fold
// rejects the repeat as out of order, and the shard merge's order check
// aborts on it.
TEST(RunMetricsTest, FoldRejectsAUnitRecordedTwice) {
  EventStream events = ConstantRate(0, 1, 10, kMilli, 0);
  for (size_t i = 0; i < events.size(); ++i) events[i].seq = i;
  events.insert(events.begin() + 4, events[3]);
  std::vector<PhaseBoundary> boundaries(1);
  boundaries[0] = {0, 0, kSecond, false, 11};
  ShardAccumulation acc(boundaries, MetricsOptions(), kMilli);
  const Status status = acc.Accumulate(events);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(),
            "event out of order: worker 0 seq 3 at t=300000000 ns follows "
            "worker 0 seq 3 at t=300000000 ns; events must be in "
            "(timestamp, worker, seq) order");

  EventStream other = ConstantRate(0, 1, 10, kMilli, 0);
  for (OpEvent& e : other) e.worker = 1;
  std::vector<EventStream> shards = {events, other};
  EXPECT_DEATH(MergeEventShards(shards), "not in \\(timestamp, seq\\) order");
}

/// An executed open-loop element of worker 3, seq 5: intended arrival at
/// 2 ms, issued at 6 ms, completed at 10 ms.
OpEvent OpenLoopElement() {
  OpEvent e;
  e.timestamp_nanos = 10 * kMilli;
  e.latency_nanos = 8 * kMilli;
  e.issue_nanos = 6 * kMilli;
  e.open_loop = true;
  e.ok = true;
  e.worker = 3;
  e.seq = 5;
  return e;
}

/// The statuses of folding `e` as a one-element stream (Accumulate) and
/// as a unit of four elements (AccumulateUnits), with their outcomes
/// unless it was shed.
std::vector<Status> FoldAsElementAndUnit(const OpEvent& e) {
  std::vector<PhaseBoundary> boundaries(1);
  boundaries[0] = {0, 0, kSecond, false, 5};
  ShardAccumulation elements(boundaries, MetricsOptions(), kMilli);
  ShardAccumulation units(boundaries, MetricsOptions(), kMilli);
  UnitShard shard;
  shard.units.push_back(e);
  shard.units[0].batch = 4;
  if (UnitHasOutcomes(shard.units[0])) {
    shard.outcomes.assign(4, MakeOutcome(true, 1));
  }
  return {elements.Accumulate(EventStream{e}), units.AccumulateUnits(shard)};
}

TEST(RunMetricsTest, FoldAcceptsOpenLoopTimesInOrder) {
  OpEvent e = OpenLoopElement();
  for (const Status& status : FoldAsElementAndUnit(e)) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  // Issue at the arrival (no wait) and at the completion (no service).
  e.issue_nanos = 2 * kMilli;
  for (const Status& status : FoldAsElementAndUnit(e)) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  e.issue_nanos = 10 * kMilli;
  for (const Status& status : FoldAsElementAndUnit(e)) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(RunMetricsTest, FoldRejectsIssueBeforeIntendedArrival) {
  OpEvent e = OpenLoopElement();
  e.issue_nanos = kMilli;
  for (const Status& status : FoldAsElementAndUnit(e)) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              "open-loop event worker 3 seq 5 at t=10000000 ns has issue "
              "1000000 ns outside [intended arrival 2000000 ns, "
              "completion]");
  }
}

TEST(RunMetricsTest, FoldRejectsIssueAfterCompletion) {
  OpEvent e = OpenLoopElement();
  e.issue_nanos = 11 * kMilli;
  for (const Status& status : FoldAsElementAndUnit(e)) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              "open-loop event worker 3 seq 5 at t=10000000 ns has issue "
              "11000000 ns outside [intended arrival 2000000 ns, "
              "completion]");
  }
}

TEST(RunMetricsTest, FoldRejectsNegativeLatency) {
  OpEvent e = OpenLoopElement();
  e.open_loop = false;
  e.latency_nanos = -1;
  for (const Status& status : FoldAsElementAndUnit(e)) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              "event worker 3 seq 5 at t=10000000 ns has negative latency "
              "-1 ns");
  }
}

TEST(RunMetricsTest, FoldIgnoresIssueOfClosedLoopAndShedEvents) {
  // The fold never reads a closed-loop event's issue, nor a queue-shed
  // one's (it was never executed).
  OpEvent e = OpenLoopElement();
  e.issue_nanos = 11 * kMilli;
  e.open_loop = false;
  for (const Status& status : FoldAsElementAndUnit(e)) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  e.open_loop = true;
  e.queue_shed = true;
  e.failed = true;
  for (const Status& status : FoldAsElementAndUnit(e)) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(RunMetricsTest, EmptyRun) {
  const RunMetrics m = ComputeRunMetrics({}, {}, MetricsOptions());
  EXPECT_EQ(m.total_operations, 0u);
  EXPECT_EQ(m.mean_throughput, 0.0);
  EXPECT_TRUE(m.phases.empty());
}

TEST(RunMetricsTest, HoldoutFlagPropagates) {
  const EventStream events = ConstantRate(0, 1, 10, kMilli, 0);
  std::vector<PhaseBoundary> boundaries(1);
  boundaries[0] = {0, 0, kSecond, true, 10};
  const RunMetrics m = ComputeRunMetrics(events, boundaries, MetricsOptions());
  ASSERT_EQ(m.phases.size(), 1u);
  EXPECT_TRUE(m.phases[0].holdout);
}

}  // namespace
}  // namespace lsbench
