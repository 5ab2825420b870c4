// Fault injection: each worker's executor draws that worker's faults from a
// FaultLane before every attempt, and the driver injects the run-level
// load and training faults. These tests pin the lane's decisions and the
// driver's handling of the run-level faults.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/driver.h"
#include "core/event_sink.h"
#include "core/executor.h"
#include "core/resilience.h"
#include "data/dataset.h"
#include "sut/fault_plan.h"
#include "util/clock.h"

namespace lsbench {
namespace {

/// Minimal recording SUT: every call is counted, Execute always succeeds.
class RecordingSut : public SystemUnderTest {
 public:
  std::string name() const override { return "recording_sut"; }

  Status Load(const std::vector<KeyValue>&) override {
    ++loads;
    return Status::OK();
  }

  TrainReport Train() override {
    ++trains;
    TrainReport report;
    report.trained = true;
    report.work_items = 7;
    return report;
  }

  OpResult Execute(const Operation&) override {
    ++executes;
    OpResult result;
    result.ok = true;
    return result;
  }

  SutStats GetStats() const override { return SutStats(); }

  int loads = 0;
  int trains = 0;
  int executes = 0;
};

/// A plan holding just `window`.
FaultPlan OneWindowPlan(const FaultWindow& window,
                        uint64_t seed = 0x5eedfa17u) {
  FaultPlan plan;
  plan.seed = seed;
  plan.windows = {window};
  return plan;
}

/// Whether each of `ops` scalar attempts in each of `phases` phases was
/// failed by `worker`'s lane.
std::vector<bool> InjectionTrace(const FaultPlan& plan, uint32_t worker,
                                 int phases, int ops) {
  VirtualClock clock;
  FaultLane lane(plan, worker, Pacer(&clock, &clock));
  std::vector<bool> trace;
  const Operation op;
  OpResult result;
  for (int p = 0; p < phases; ++p) {
    lane.BeginPhase(p);
    for (int i = 0; i < ops; ++i) trace.push_back(lane.Inject(op, &result));
  }
  return trace;
}

/// A one-phase read-only spec for driver-level cases, run in simulation.
RunSpec SmallSpec(uint64_t ops) {
  RunSpec spec;
  spec.name = "fault_injection";
  spec.seed = 3;
  DatasetOptions options;
  options.num_keys = 1000;
  options.seed = 3;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  PhaseSpec phase;
  phase.name = "p0";
  phase.dataset_index = 0;
  phase.num_operations = ops;
  spec.phases.push_back(phase);
  spec.offline_training = true;
  return spec;
}

Result<RunResult> RunSimulated(const RunSpec& spec, SystemUnderTest* sut) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  return driver.Run(spec, sut);
}

TEST(FaultPlanTest, EmptyAndWindowLookup) {
  FaultPlan plan;
  EXPECT_TRUE(plan.Empty());
  EXPECT_EQ(plan.WindowForPhase(0), nullptr);

  FaultWindow wildcard;
  wildcard.phase = -1;
  wildcard.execute_fail_rate = 0.1;
  FaultWindow exact;
  exact.phase = 2;
  exact.execute_fail_rate = 0.9;
  plan.windows = {wildcard, exact};
  EXPECT_FALSE(plan.Empty());

  // Exact match beats the wildcard; other phases fall back to it.
  ASSERT_NE(plan.WindowForPhase(2), nullptr);
  EXPECT_EQ(plan.WindowForPhase(2)->execute_fail_rate, 0.9);
  ASSERT_NE(plan.WindowForPhase(0), nullptr);
  EXPECT_EQ(plan.WindowForPhase(0)->execute_fail_rate, 0.1);

  // Among equally specific windows the last one wins.
  FaultWindow exact2;
  exact2.phase = 2;
  exact2.execute_fail_rate = 0.5;
  plan.windows.push_back(exact2);
  EXPECT_EQ(plan.WindowForPhase(2)->execute_fail_rate, 0.5);
}

TEST(FaultPlanTest, FailLoadAloneMakesPlanNonEmpty) {
  FaultPlan plan;
  plan.fail_load = true;
  EXPECT_FALSE(plan.Empty());
}

TEST(FaultInjectionTest, TransparentWithoutFaults) {
  // A lane whose phase has no window draws nothing and burns no time.
  FaultWindow later;
  later.phase = 1;
  later.execute_fail_rate = 1.0;
  const FaultPlan plan = OneWindowPlan(later);
  VirtualClock clock;
  FaultLane lane(plan, 0, Pacer(&clock, &clock));
  OpResult result;
  result.ok = true;
  EXPECT_FALSE(lane.Inject(Operation(), &result));
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(clock.NowNanos(), 0);

  // A window whose rates are all zero draws from its own stream only: the
  // run reaches the SUT for every op and records the same events as a run
  // without a plan.
  const RunSpec clean = SmallSpec(500);
  RunSpec zero_rates = clean;
  zero_rates.faults = OneWindowPlan(FaultWindow());
  RecordingSut clean_sut;
  RecordingSut faulted_sut;
  const Result<RunResult> a = RunSimulated(clean, &clean_sut);
  const Result<RunResult> b = RunSimulated(zero_rates, &faulted_sut);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(SerializeEventStream(a.value().events),
            SerializeEventStream(b.value().events));
  EXPECT_EQ(faulted_sut.loads, 1);
  EXPECT_EQ(faulted_sut.trains, 1);
  EXPECT_EQ(faulted_sut.executes, 500);
  EXPECT_EQ(b.value().fault_stats.injected_failures, 0u);
}

TEST(FaultInjectionTest, CertainExecuteFailureNeverReachesTheSut) {
  FaultWindow w;
  w.execute_fail_rate = 1.0;
  w.execute_fail_code = StatusCode::kResourceExhausted;
  const FaultPlan plan = OneWindowPlan(w);
  RecordingSut sut;
  VirtualClock clock;
  ResilientExecutor::Options options;
  options.faults = &plan;
  ResilientExecutor executor(&sut, ResilienceSpec(), Pacer(&clock, &clock),
                             /*backoff_seed=*/1, options);

  const Operation op;
  OpResult result;
  for (int i = 0; i < 50; ++i) {
    const ExecOutcome outcome = executor.Execute(op, 0, &result);
    EXPECT_TRUE(outcome.failed);
    EXPECT_TRUE(result.status.IsResourceExhausted());
  }
  // A batch is one unit: one decision fails every element.
  const Key keys[4] = {1, 2, 3, 4};
  Operation batch;
  batch.type = OpType::kBatchGet;
  batch.batch_keys = keys;
  batch.batch_size = 4;
  OpResult results[4];
  for (OpResult& r : results) r.ok = true;
  EXPECT_TRUE(executor.Execute(batch, 0, results).failed);
  for (const OpResult& r : results) {
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.status.IsResourceExhausted());
  }
  EXPECT_EQ(sut.executes, 0);
  ASSERT_NE(executor.faults(), nullptr);
  EXPECT_EQ(executor.faults()->stats().injected_failures, 51u);
}

TEST(FaultInjectionTest, FailureRateRoughlyMatchesProbability) {
  FaultWindow w;
  w.execute_fail_rate = 0.2;
  VirtualClock clock;
  const FaultPlan plan = OneWindowPlan(w);
  FaultLane lane(plan, 0, Pacer(&clock, &clock));
  const Operation op;
  OpResult result;
  const int kOps = 10000;
  int failures = 0;
  for (int i = 0; i < kOps; ++i) {
    if (lane.Inject(op, &result)) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / kOps, 0.2, 0.02);
  EXPECT_EQ(lane.stats().injected_failures, static_cast<uint64_t>(failures));
}

TEST(FaultInjectionTest, WindowsAreScopedToPhases) {
  FaultWindow w;
  w.phase = 1;
  w.execute_fail_rate = 1.0;
  const FaultPlan plan = OneWindowPlan(w);
  VirtualClock clock;
  FaultLane lane(plan, 0, Pacer(&clock, &clock));
  const Operation op;
  OpResult result;
  lane.BeginPhase(0);
  EXPECT_FALSE(lane.Inject(op, &result));
  lane.BeginPhase(1);
  EXPECT_TRUE(lane.Inject(op, &result));
  lane.BeginPhase(2);
  EXPECT_FALSE(lane.Inject(op, &result));
}

TEST(FaultInjectionTest, LatencySpikesAndStallsAdvanceVirtualClock) {
  FaultWindow w;
  w.latency_spike_rate = 1.0;
  w.latency_spike_nanos = 5000;
  const FaultPlan plan = OneWindowPlan(w);
  VirtualClock clock;
  FaultLane lane(plan, 0, Pacer(&clock, &clock));
  const Operation op;
  OpResult result;
  EXPECT_FALSE(lane.Inject(op, &result));
  EXPECT_EQ(clock.NowNanos(), 5000);
  EXPECT_EQ(lane.stats().injected_spikes, 1u);

  // A stall takes priority over a spike when both fire.
  FaultWindow sw = w;
  sw.stall_rate = 1.0;
  sw.stall_nanos = 1000000;
  const FaultPlan stall_plan = OneWindowPlan(sw);
  VirtualClock clock2;
  FaultLane stalling(stall_plan, 0, Pacer(&clock2, &clock2));
  EXPECT_FALSE(stalling.Inject(op, &result));
  EXPECT_EQ(clock2.NowNanos(), 1000000);
  EXPECT_EQ(stalling.stats().injected_stalls, 1u);
  EXPECT_EQ(stalling.stats().injected_spikes, 0u);
}

TEST(FaultInjectionTest, FailLoadFailsTheRunWithoutLoading) {
  RunSpec spec = SmallSpec(100);
  spec.faults.fail_load = true;
  RecordingSut sut;
  const Result<RunResult> result = RunSimulated(spec, &sut);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError()) << result.status().ToString();
  EXPECT_EQ(sut.loads, 0);
  EXPECT_EQ(sut.executes, 0);
}

TEST(FaultInjectionTest, TrainHangAndFailure) {
  RunSpec spec = SmallSpec(100);
  FaultWindow w;
  w.phase = 0;
  w.train_hang_nanos = 250000000;  // 250 ms hang.
  w.fail_train = true;
  spec.faults = OneWindowPlan(w);
  RecordingSut sut;
  const Result<RunResult> result = RunSimulated(spec, &sut);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& run = result.value();
  EXPECT_EQ(sut.trains, 0);
  EXPECT_EQ(sut.executes, 100);
  ASSERT_EQ(run.train_events.size(), 1u);
  EXPECT_FALSE(run.train_events[0].ok);
  EXPECT_EQ(run.train_events[0].end_nanos - run.train_events[0].start_nanos,
            250000000);
  EXPECT_EQ(run.fault_stats.hung_trains, 1u);
  EXPECT_EQ(run.fault_stats.failed_trains, 1u);
  EXPECT_EQ(run.metrics.resilience.failed_trains, 1u);

  // A window for a later phase leaves offline training alone.
  spec.phases.push_back(spec.phases[0]);
  spec.phases[1].name = "p1";
  spec.faults.windows[0].phase = 1;
  RecordingSut healthy;
  const Result<RunResult> trained = RunSimulated(spec, &healthy);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_EQ(healthy.trains, 1);
  EXPECT_EQ(trained.value().fault_stats.hung_trains, 0u);
}

TEST(FaultInjectionTest, DecisionsAreSeedDeterministic) {
  FaultWindow w;
  w.execute_fail_rate = 0.1;
  w.latency_spike_rate = 0.05;
  w.latency_spike_nanos = 1000;
  const auto a = InjectionTrace(OneWindowPlan(w, 99), 0, 3, 500);
  EXPECT_EQ(a, InjectionTrace(OneWindowPlan(w, 99), 0, 3, 500));
  // A different seed, or another worker's lane, draws a different trace
  // (overwhelmingly likely given 1500 draws at 10%).
  EXPECT_NE(a, InjectionTrace(OneWindowPlan(w, 100), 0, 3, 500));
  EXPECT_NE(a, InjectionTrace(OneWindowPlan(w, 99), 1, 3, 500));
}

TEST(FaultInjectionTest, PhaseStreamsAreIndependentOfDrawCounts) {
  // The injection decisions inside phase 1 must not depend on how many ops
  // phase 0 executed: per-phase RNG forks.
  FaultWindow w;
  w.execute_fail_rate = 0.2;
  const FaultPlan plan = OneWindowPlan(w);
  auto phase1_trace = [&plan](int phase0_ops) {
    VirtualClock clock;
    FaultLane lane(plan, 2, Pacer(&clock, &clock));
    const Operation op;
    OpResult result;
    for (int i = 0; i < phase0_ops; ++i) (void)lane.Inject(op, &result);
    lane.BeginPhase(1);
    std::vector<bool> trace;
    for (int i = 0; i < 200; ++i) trace.push_back(lane.Inject(op, &result));
    return trace;
  };
  EXPECT_EQ(phase1_trace(10), phase1_trace(1000));
}

}  // namespace
}  // namespace lsbench
