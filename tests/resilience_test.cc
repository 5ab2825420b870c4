#include "core/resilience.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/driver.h"
#include "core/run_spec.h"
#include "data/dataset.h"
#include "sut/systems.h"
#include "util/clock.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// RetryBackoff
// ---------------------------------------------------------------------------

TEST(RetryBackoffTest, ExponentialScheduleWithoutJitter) {
  ResilienceSpec spec;
  spec.backoff_initial_nanos = 1000;
  spec.backoff_multiplier = 3.0;
  spec.backoff_max_nanos = 20000;
  spec.backoff_jitter = 0.0;
  RetryBackoff backoff(spec, 1);
  EXPECT_EQ(backoff.NextDelayNanos(1), 1000);
  EXPECT_EQ(backoff.NextDelayNanos(2), 3000);
  EXPECT_EQ(backoff.NextDelayNanos(3), 9000);
  EXPECT_EQ(backoff.NextDelayNanos(4), 20000);  // Capped.
  EXPECT_EQ(backoff.NextDelayNanos(5), 20000);
}

TEST(RetryBackoffTest, JitterIsBoundedAndSeedDeterministic) {
  ResilienceSpec spec;
  spec.backoff_initial_nanos = 1000000;
  spec.backoff_multiplier = 2.0;
  spec.backoff_max_nanos = 1000000000;
  spec.backoff_jitter = 0.25;

  auto schedule = [&spec](uint64_t seed) {
    RetryBackoff backoff(spec, seed);
    std::vector<int64_t> delays;
    for (uint32_t attempt = 1; attempt <= 8; ++attempt) {
      delays.push_back(backoff.NextDelayNanos(attempt));
    }
    return delays;
  };

  const auto a = schedule(7);
  const auto b = schedule(7);
  EXPECT_EQ(a, b);  // Same seed, same jittered schedule.
  EXPECT_NE(a, schedule(8));

  for (uint32_t attempt = 1; attempt <= 8; ++attempt) {
    const double base = std::min(
        1000000.0 * std::pow(2.0, attempt - 1), 1000000000.0);
    EXPECT_GE(a[attempt - 1], static_cast<int64_t>(base * 0.75) - 1);
    EXPECT_LE(a[attempt - 1], static_cast<int64_t>(base * 1.25) + 1);
  }
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

ResilienceSpec SmallBreakerSpec() {
  ResilienceSpec spec;
  spec.breaker_enabled = true;
  spec.breaker_window_ops = 10;
  spec.breaker_failure_threshold = 0.5;
  spec.breaker_cooldown_nanos = 1000;
  spec.breaker_half_open_probes = 3;
  return spec;
}

TEST(CircuitBreakerTest, OpensOnlyWhenWindowIsFullAndRateAtThreshold) {
  CircuitBreaker breaker(SmallBreakerSpec());
  // 9 failures: window not yet full, still closed.
  for (int i = 0; i < 9; ++i) breaker.RecordFailure(i);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(9);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_count(), 1u);
  EXPECT_FALSE(breaker.AllowRequest(10));
}

TEST(CircuitBreakerTest, StaysClosedBelowThreshold) {
  CircuitBreaker breaker(SmallBreakerSpec());
  // 4 failures / 10 = 40% < 50%: closed.
  for (int i = 0; i < 10; ++i) {
    if (i < 4) {
      breaker.RecordFailure(i);
    } else {
      breaker.RecordSuccess(i);
    }
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(11));
}

TEST(CircuitBreakerTest, OpenToHalfOpenToClosed) {
  CircuitBreaker breaker(SmallBreakerSpec());
  for (int i = 0; i < 10; ++i) breaker.RecordFailure(100);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(100));
  EXPECT_FALSE(breaker.AllowRequest(1099));  // Cooldown not yet elapsed.

  // Cooldown elapsed: half-open lets probes through.
  EXPECT_TRUE(breaker.AllowRequest(1100));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(1101);
  breaker.RecordSuccess(1102);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(1103);  // Third consecutive probe success closes.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.open_count(), 1u);
  // Degraded span covers open + half-open: 100 .. 1103.
  EXPECT_EQ(breaker.DegradedNanos(2000), 1003);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  CircuitBreaker breaker(SmallBreakerSpec());
  for (int i = 0; i < 10; ++i) breaker.RecordFailure(0);
  ASSERT_TRUE(breaker.AllowRequest(1000));  // Half-open.
  breaker.RecordSuccess(1001);
  breaker.RecordFailure(1002);  // Probe failure: back to open.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_count(), 2u);
  EXPECT_FALSE(breaker.AllowRequest(1500));  // Fresh cooldown from 1002.
  EXPECT_TRUE(breaker.AllowRequest(2002));
  // Still degraded since the first open at t=0.
  breaker.RecordSuccess(2003);
  breaker.RecordSuccess(2004);
  breaker.RecordSuccess(2005);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.DegradedNanos(3000), 2005);
}

TEST(CircuitBreakerTest, WindowResetsAfterClose) {
  CircuitBreaker breaker(SmallBreakerSpec());
  for (int i = 0; i < 10; ++i) breaker.RecordFailure(0);
  ASSERT_TRUE(breaker.AllowRequest(1000));
  for (int i = 0; i < 3; ++i) breaker.RecordSuccess(1001 + i);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // The stale failures must not count toward the fresh window: 5 failures
  // into an empty window of 10 leaves the breaker closed.
  for (int i = 0; i < 5; ++i) breaker.RecordFailure(2000 + i);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// Driver integration
// ---------------------------------------------------------------------------

/// Fails the first `failures_per_op` Execute attempts of every operation
/// with a transient code, then succeeds — exercises the retry path.
/// `failures_per_op < 0` means every attempt fails forever.
class FlakySystem : public SystemUnderTest {
 public:
  explicit FlakySystem(int failures_per_op)
      : failures_per_op_(failures_per_op) {}

  std::string name() const override { return "flaky_system"; }
  Status Load(const std::vector<KeyValue>&) override { return Status::OK(); }

  OpResult Execute(const Operation&) override {
    OpResult result;
    if (failures_per_op_ < 0 || attempt_ < failures_per_op_) {
      ++attempt_;
      result.status = Status::Unavailable("flaky");
      return result;
    }
    attempt_ = 0;
    result.ok = true;
    return result;
  }

  SutStats GetStats() const override { return {}; }

 private:
  int failures_per_op_;
  int attempt_ = 0;
};

RunSpec SmallSpec(uint64_t seed = 42, uint64_t ops = 500) {
  RunSpec spec;
  spec.name = "resilience_test_" + std::to_string(seed);
  spec.seed = seed;
  DatasetOptions options;
  options.num_keys = 2000;
  options.seed = seed;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  PhaseSpec phase;
  phase.name = "steady";
  phase.mix = OperationMix::ReadMostly();
  phase.num_operations = ops;
  spec.phases.push_back(phase);
  spec.interval_nanos = 100000000;
  spec.boxplot_sample_nanos = 10000000;
  return spec;
}

BenchmarkDriver MakeSimDriver(VirtualClock* clock) {
  DriverOptions options;
  options.virtual_clock = clock;
  return BenchmarkDriver(clock, options);
}

TEST(ResilientDriverTest, TransientFailuresAreRetriedToSuccess) {
  VirtualClock clock;
  BenchmarkDriver driver = MakeSimDriver(&clock);
  FlakySystem sut(/*failures_per_op=*/1);
  RunSpec spec = SmallSpec();
  spec.resilience.max_retries = 2;
  spec.resilience.backoff_initial_nanos = 1000;

  const RunResult run = driver.Run(spec, &sut).value();
  EXPECT_EQ(run.metrics.resilience.failed_operations, 0u);
  EXPECT_EQ(run.metrics.resilience.total_retries, run.events.size());
  EXPECT_DOUBLE_EQ(run.metrics.resilience.availability, 1.0);
  for (const OpEvent& e : run.events) {
    EXPECT_EQ(e.retries, 1);
    EXPECT_FALSE(e.failed);
    EXPECT_TRUE(e.ok);
  }
}

TEST(ResilientDriverTest, RetriesExhaustedMarksOperationFailed) {
  VirtualClock clock;
  BenchmarkDriver driver = MakeSimDriver(&clock);
  FlakySystem sut(/*failures_per_op=*/-1);  // Permanently down.
  RunSpec spec = SmallSpec();
  spec.resilience.max_retries = 2;
  spec.resilience.backoff_initial_nanos = 1000;

  const RunResult run = driver.Run(spec, &sut).value();
  EXPECT_EQ(run.metrics.resilience.failed_operations, run.events.size());
  EXPECT_DOUBLE_EQ(run.metrics.resilience.availability, 0.0);
  EXPECT_EQ(run.events[0].retries, 2);
}

TEST(ResilientDriverTest, WithoutRetriesTransientFailureFailsImmediately) {
  VirtualClock clock;
  BenchmarkDriver driver = MakeSimDriver(&clock);
  FlakySystem sut(/*failures_per_op=*/-1);  // Permanently down.
  const RunSpec spec = SmallSpec();  // Resilience defaults: everything off.

  const RunResult run = driver.Run(spec, &sut).value();
  EXPECT_EQ(run.metrics.resilience.failed_operations, run.events.size());
  EXPECT_EQ(run.metrics.resilience.total_retries, 0u);
}

TEST(ResilientDriverTest, SlowServiceBlowsTimeoutBudget) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 100000;  // 100 us per op.
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  RunSpec spec = SmallSpec();
  spec.resilience.op_timeout_nanos = 50000;  // 50 us budget: always blown.

  const RunResult run = driver.Run(spec, &sut).value();
  EXPECT_EQ(run.metrics.resilience.timeouts, run.events.size());
  EXPECT_EQ(run.metrics.resilience.failed_operations, run.events.size());
  for (const OpEvent& e : run.events) {
    EXPECT_TRUE(e.timed_out);
    EXPECT_FALSE(e.ok);
  }

  // A generous budget: no timeouts.
  BenchmarkDriver driver2(&clock, options);
  RunSpec relaxed = SmallSpec(43);
  relaxed.resilience.op_timeout_nanos = 10000000;
  const RunResult run2 = driver2.Run(relaxed, &sut).value();
  EXPECT_EQ(run2.metrics.resilience.timeouts, 0u);
  EXPECT_DOUBLE_EQ(run2.metrics.resilience.availability, 1.0);
}

/// Two-phase spec whose first phase is a total outage (every Execute fails)
/// and whose second phase is healthy.
RunSpec OutageThenRecoverySpec(uint64_t seed = 42) {
  RunSpec spec = SmallSpec(seed, 400);
  PhaseSpec recovery = spec.phases[0];
  recovery.name = "recovery";
  spec.phases.push_back(recovery);

  FaultWindow outage;
  outage.phase = 0;
  outage.execute_fail_rate = 1.0;
  spec.faults.windows = {outage};

  spec.resilience.breaker_enabled = true;
  spec.resilience.breaker_window_ops = 20;
  spec.resilience.breaker_failure_threshold = 0.5;
  spec.resilience.breaker_cooldown_nanos = 50000;  // 50 us.
  spec.resilience.breaker_half_open_probes = 4;
  return spec;
}

TEST(ResilientDriverTest, BreakerShedsDuringOutageAndRecovers) {
  VirtualClock clock;
  BenchmarkDriver driver = MakeSimDriver(&clock);
  BTreeSystem sut;
  const RunSpec spec = OutageThenRecoverySpec();

  const RunResult run = driver.Run(spec, &sut).value();
  const ResilienceMetrics& rm = run.metrics.resilience;
  EXPECT_GT(rm.shed_operations, 0u);
  EXPECT_GE(rm.breaker_opens, 1u);
  EXPECT_GT(rm.degraded_seconds, 0.0);
  EXPECT_GT(run.fault_stats.injected_failures, 0u);

  // Phase 0 is a total outage; phase 1 must mostly recover (the breaker
  // sheds at most one cooldown's worth of ops before its probes succeed
  // and it closes again).
  const PhaseMetrics& outage = run.metrics.phases[0];
  const PhaseMetrics& recovery = run.metrics.phases[1];
  EXPECT_EQ(outage.failed_operations, outage.operations);
  EXPECT_LT(recovery.failed_operations, recovery.operations / 4);
  EXPECT_GT(rm.availability, 0.4);
  EXPECT_LT(rm.availability, 0.51);
}

TEST(ResilientDriverTest, DisabledBreakerNeverShedsThroughTheOutage) {
  // The same outage with the breaker off: every outage op reaches the SUT
  // and fails, nothing is shed, and the run never enters degraded mode.
  VirtualClock clock;
  BenchmarkDriver driver = MakeSimDriver(&clock);
  BTreeSystem sut;
  RunSpec spec = OutageThenRecoverySpec();
  spec.resilience.breaker_enabled = false;

  const RunResult run = driver.Run(spec, &sut).value();
  const ResilienceMetrics& rm = run.metrics.resilience;
  EXPECT_EQ(rm.shed_operations, 0u);
  EXPECT_EQ(rm.breaker_opens, 0u);
  EXPECT_EQ(rm.degraded_seconds, 0.0);
  EXPECT_GT(run.fault_stats.injected_failures, 0u);

  const PhaseMetrics& outage = run.metrics.phases[0];
  const PhaseMetrics& recovery = run.metrics.phases[1];
  EXPECT_EQ(outage.failed_operations, outage.operations);
  EXPECT_EQ(run.fault_stats.injected_failures, outage.operations);
  EXPECT_EQ(recovery.failed_operations, 0u);
}

TEST(ResilientDriverTest, FaultedRunIsByteForByteDeterministic) {
  RunSpec spec = OutageThenRecoverySpec(77);
  spec.faults.windows[0].execute_fail_rate = 0.3;
  spec.faults.windows[0].latency_spike_rate = 0.05;
  spec.faults.windows[0].latency_spike_nanos = 400000;
  spec.resilience.max_retries = 3;
  spec.resilience.backoff_initial_nanos = 20000;
  spec.resilience.backoff_jitter = 0.3;
  spec.resilience.op_timeout_nanos = 2000000;

  auto run_once = [&spec]() {
    VirtualClock clock;
    DriverOptions options;
    options.virtual_clock = &clock;
    BenchmarkDriver driver(&clock, options);
    BTreeSystem sut;
    return driver.Run(spec, &sut).value();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].timestamp_nanos, b.events[i].timestamp_nanos);
    EXPECT_EQ(a.events[i].latency_nanos, b.events[i].latency_nanos);
    EXPECT_EQ(a.events[i].ok, b.events[i].ok);
    EXPECT_EQ(a.events[i].retries, b.events[i].retries);
    EXPECT_EQ(a.events[i].failed, b.events[i].failed);
    EXPECT_EQ(a.events[i].timed_out, b.events[i].timed_out);
    EXPECT_EQ(a.events[i].shed, b.events[i].shed);
  }
  EXPECT_EQ(a.fault_stats.injected_failures, b.fault_stats.injected_failures);
  EXPECT_EQ(a.fault_stats.injected_spikes, b.fault_stats.injected_spikes);
  EXPECT_EQ(a.metrics.resilience.total_retries,
            b.metrics.resilience.total_retries);
  EXPECT_EQ(a.metrics.resilience.shed_operations,
            b.metrics.resilience.shed_operations);
}

TEST(ResilientDriverTest, ResilienceOffMatchesLegacyBehaviour) {
  // Enabling the resilient loop with everything off must not perturb the
  // event stream of a healthy run.
  const RunSpec spec = SmallSpec(11);
  auto run_once = [&spec]() {
    VirtualClock clock;
    DriverOptions options;
    options.virtual_clock = &clock;
    BenchmarkDriver driver(&clock, options);
    BTreeSystem sut;
    return driver.Run(spec, &sut).value();
  };
  const RunResult run = run_once();
  EXPECT_EQ(run.metrics.resilience.failed_operations, 0u);
  EXPECT_EQ(run.metrics.resilience.total_retries, 0u);
  EXPECT_EQ(run.metrics.resilience.shed_operations, 0u);
  EXPECT_EQ(run.metrics.resilience.breaker_opens, 0u);
  EXPECT_DOUBLE_EQ(run.metrics.resilience.availability, 1.0);
}

TEST(ResilientDriverTest, FailedTrainingIsRecorded) {
  VirtualClock clock;
  BenchmarkDriver driver = MakeSimDriver(&clock);
  LearnedKvSystem sut;
  RunSpec spec = SmallSpec(13);
  FaultWindow w;
  w.fail_train = true;
  w.train_hang_nanos = 50000000;  // 50 ms hang before failing.
  spec.faults.windows = {w};

  const RunResult run = driver.Run(spec, &sut).value();
  ASSERT_EQ(run.train_events.size(), 1u);
  EXPECT_FALSE(run.train_events[0].ok);
  EXPECT_GT(run.train_events[0].Seconds(), 0.04);
  EXPECT_EQ(run.metrics.resilience.failed_trains, 1u);
  EXPECT_EQ(run.fault_stats.failed_trains, 1u);
  EXPECT_EQ(run.fault_stats.hung_trains, 1u);
}

}  // namespace
}  // namespace lsbench
