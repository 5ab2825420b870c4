// Open-loop service mode: AdmissionQueue policy semantics, an end-to-end
// overload run checked against a hand-computed schedule (constant arrivals
// make every admit/shed decision exactly predictable), byte-determinism of
// the demo spec at workers = 1 and 4, and the acceptance properties —
// under overload the coordinated-omission-correct response p99 dominates
// the service-time p99, and the shed fraction is nonzero but bounded.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/driver.h"
#include "core/event_sink.h"
#include "core/service.h"
#include "core/spec_text.h"
#include "data/dataset.h"
#include "obs/observability.h"
#include "sut/systems.h"

namespace lsbench {
namespace {

WorkloadStream::Issue MakeIssue(int64_t arrival_rel_nanos) {
  WorkloadStream::Issue issue;
  issue.op.type = OpType::kGet;
  issue.op.key = static_cast<uint64_t>(arrival_rel_nanos);
  issue.arrival_rel_nanos = arrival_rel_nanos;
  issue.open_loop = true;
  return issue;
}

// ---------------------------------------------------------------------------
// AdmissionQueue policy semantics.

TEST(AdmissionQueueTest, DropNewestShedsTheArrivalWhenFull) {
  ServiceSpec spec;
  spec.enabled = true;
  spec.queue_capacity = 2;
  spec.policy = OverloadPolicy::kDropNewest;
  AdmissionQueue queue(spec);

  EXPECT_TRUE(queue.Offer(MakeIssue(1), 10, false).admitted);
  EXPECT_TRUE(queue.Offer(MakeIssue(2), 10, false).admitted);
  const AdmissionQueue::Admission third = queue.Offer(MakeIssue(3), 10, false);
  EXPECT_FALSE(third.admitted);
  ASSERT_TRUE(third.shed.has_value());
  EXPECT_EQ(third.shed->arrival_rel_nanos, 3);  // The arrival itself.

  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.peak_depth(), 2u);
  EXPECT_EQ(queue.offered(), 3u);
  EXPECT_EQ(queue.admitted(), 2u);
  EXPECT_EQ(queue.shed(), 1u);
  // FIFO order survives the shed.
  EXPECT_EQ(queue.PopFront(20).arrival_rel_nanos, 1);
  EXPECT_EQ(queue.PopFront(20).arrival_rel_nanos, 2);
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionQueueTest, DropOldestShedsTheHeadAndAdmitsTheArrival) {
  ServiceSpec spec;
  spec.enabled = true;
  spec.queue_capacity = 2;
  spec.policy = OverloadPolicy::kDropOldest;
  AdmissionQueue queue(spec);

  EXPECT_TRUE(queue.Offer(MakeIssue(1), 10, false).admitted);
  EXPECT_TRUE(queue.Offer(MakeIssue(2), 10, false).admitted);
  const AdmissionQueue::Admission third = queue.Offer(MakeIssue(3), 10, false);
  EXPECT_TRUE(third.admitted);
  ASSERT_TRUE(third.shed.has_value());
  EXPECT_EQ(third.shed->arrival_rel_nanos, 1);  // The old head.

  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.offered(), 3u);
  EXPECT_EQ(queue.admitted(), 3u);
  EXPECT_EQ(queue.shed(), 1u);
  EXPECT_EQ(queue.PopFront(20).arrival_rel_nanos, 2);
  EXPECT_EQ(queue.PopFront(20).arrival_rel_nanos, 3);
}

TEST(AdmissionQueueTest, SloShedPredictsQueueDelayFromServiceTime) {
  ServiceSpec spec;
  spec.enabled = true;
  spec.queue_capacity = 8;
  spec.policy = OverloadPolicy::kSloShed;
  spec.slo_p99_nanos = 1000000;  // 1 ms response target.
  spec.max_shed_fraction = 1.0;
  AdmissionQueue queue(spec);

  // No service-time estimate yet: the predictor has nothing to go on and
  // admits (predicted delay 0).
  EXPECT_TRUE(queue.Offer(MakeIssue(0), 0, false).admitted);
  (void)queue.PopFront(0);

  // Observed service time 2 ms: even an empty queue predicts a 2 ms wait,
  // past the 1 ms SLO — shed.
  queue.RecordServiceTime(2000000);
  const AdmissionQueue::Admission a = queue.Offer(MakeIssue(100), 100, false);
  EXPECT_FALSE(a.admitted);
  ASSERT_TRUE(a.shed.has_value());

  // The EMA decays toward fast completions (integer EMA, alpha = 1/4):
  // after enough 0.1 ms samples the predicted delay is back under the SLO.
  for (int i = 0; i < 32; ++i) queue.RecordServiceTime(100000);
  EXPECT_TRUE(queue.Offer(MakeIssue(200), 200, false).admitted);
}

TEST(AdmissionQueueTest, SloShedRespectsTheShedBudget) {
  ServiceSpec spec;
  spec.enabled = true;
  spec.queue_capacity = 2;
  spec.policy = OverloadPolicy::kSloShed;
  spec.slo_p99_nanos = 1000000;
  spec.max_shed_fraction = 0.0;  // No predictive sheds allowed.
  AdmissionQueue queue(spec);

  queue.RecordServiceTime(2000000);  // Predicts SLO misses everywhere.
  // Budget exhausted (zero): predictive shedding is suppressed, admits
  // proceed until the queue bound forces drops.
  EXPECT_TRUE(queue.Offer(MakeIssue(1), 0, false).admitted);
  EXPECT_TRUE(queue.Offer(MakeIssue(2), 0, false).admitted);
  // Full queue: the forced shed is exempt from the budget (the capacity
  // bound always holds).
  const AdmissionQueue::Admission forced = queue.Offer(MakeIssue(3), 0, false);
  EXPECT_FALSE(forced.admitted);
  EXPECT_TRUE(forced.shed.has_value());
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(AdmissionQueueTest, SloShedTightensWhileDegraded) {
  ServiceSpec spec;
  spec.enabled = true;
  spec.queue_capacity = 8;
  spec.policy = OverloadPolicy::kSloShed;
  spec.slo_p99_nanos = 1000;
  spec.max_shed_fraction = 1.0;
  AdmissionQueue queue(spec);

  // At now == deadline exactly (no service-time estimate, so the backlog
  // prediction is 0) healthy admission still accepts...
  EXPECT_TRUE(queue.Offer(MakeIssue(0), 1000, false).admitted);
  // ...but degraded mode sheds an arrival at/past its deadline outright.
  const AdmissionQueue::Admission late = queue.Offer(MakeIssue(0), 1000, true);
  EXPECT_FALSE(late.admitted);
  EXPECT_TRUE(late.shed.has_value());
  // A degraded arrival still inside its deadline is admitted.
  EXPECT_TRUE(queue.Offer(MakeIssue(6000), 6500, true).admitted);
}

// ---------------------------------------------------------------------------
// End-to-end overload run against a hand-computed schedule.

/// A SUT whose every Execute takes exactly 100 us of virtual time — twice
/// the 50 us interarrival step below, so the run is at 2x sustainable load.
class SlowSimSut final : public SystemUnderTest {
 public:
  explicit SlowSimSut(VirtualClock* clock) : clock_(clock) {}
  std::string name() const override { return "slow_sim"; }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    loaded_ = sorted_pairs.size();
    return Status::OK();
  }
  OpResult Execute(const Operation& op) override {
    (void)op;
    clock_->AdvanceNanos(100000);
    OpResult result;
    result.ok = true;
    return result;
  }
  SutStats GetStats() const override {
    SutStats stats;
    stats.memory_bytes = loaded_ * 16;
    return stats;
  }

 private:
  VirtualClock* clock_;
  size_t loaded_ = 0;
};

RunSpec MakeOverloadSpec() {
  RunSpec spec;
  spec.name = "service_overload_handcomputed";
  spec.seed = 7;
  DatasetOptions options;
  options.num_keys = 1000;
  options.seed = 7;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));

  PhaseSpec phase;
  phase.name = "overload";
  phase.dataset_index = 0;
  phase.mix.get = 1.0;
  phase.access = AccessPattern::kUniform;
  phase.arrival = ArrivalPattern::kConstant;
  phase.arrival_rate_qps = 20000.0;  // Exactly one arrival per 50 us.
  phase.num_operations = 400;
  spec.phases.push_back(phase);

  spec.service.enabled = true;
  spec.service.queue_capacity = 1;
  spec.service.policy = OverloadPolicy::kDropNewest;
  spec.interval_nanos = 10000000;
  spec.boxplot_sample_nanos = 1000000;
  spec.observability.metrics = true;
  return spec;
}

int64_t GaugeValue(const MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [metric, value] : snapshot.gauges) {
    if (metric == name) return value;
  }
  return -1;
}

uint64_t CounterValue(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [metric, value] : snapshot.counters) {
    if (metric == name) return value;
  }
  return 0;
}

TEST(ServiceModeTest, OverloadMatchesHandComputedSchedule) {
  // Constant arrivals every 50 us against a 100 us service time, queue
  // capacity 1, drop-newest. The schedule is exactly computable:
  //   arrival a_i = (i+1) * 50us. a_0 admits and executes (completes at
  //   a_0 + 100us). Every execution spans two arrival steps, so each cycle
  //   admits one due arrival and sheds the next: a_1, a_3, ..., a_399
  //   execute, a_2, a_4, ..., a_398 shed. 201 executed, 199 shed, and the
  //   queue never holds more than one operation.
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 0;  // The SUT advances time itself.
  BenchmarkDriver driver(&clock, options);
  SlowSimSut sut(&clock);
  const RunSpec spec = MakeOverloadSpec();
  const Result<RunResult> result = driver.Run(spec, &sut);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& run = result.value();

  ASSERT_EQ(run.events.size(), 400u);
  uint64_t shed = 0;
  for (const OpEvent& event : run.events) {
    EXPECT_TRUE(event.open_loop);
    if (event.queue_shed) {
      ++shed;
      EXPECT_TRUE(event.failed);
      // Sheds are decided the instant the arrival is due: zero response.
      EXPECT_EQ(event.latency_nanos, 0);
    } else {
      // Every executed operation spends exactly the SUT's 100 us in
      // service (timestamp - issue), and 150 us start-to-finish except
      // a_0, which never queues (100 us).
      EXPECT_EQ(event.timestamp_nanos - event.issue_nanos, 100000);
      EXPECT_TRUE(event.latency_nanos == 100000 ||
                  event.latency_nanos == 150000)
          << event.latency_nanos;
    }
  }
  EXPECT_EQ(shed, 199u);

  const ServiceMetrics& sm = run.metrics.service;
  EXPECT_TRUE(sm.enabled);
  EXPECT_EQ(sm.policy, "drop_newest");
  EXPECT_EQ(sm.open_loop_operations, 400u);
  EXPECT_EQ(sm.queue_shed_operations, 199u);
  EXPECT_DOUBLE_EQ(sm.shed_fraction, 199.0 / 400.0);
  EXPECT_TRUE(sm.shed_bound_met);  // Default bound is 1.0.
  EXPECT_EQ(sm.response_latency.count(), 201u);
  EXPECT_EQ(sm.service_latency.count(), 201u);
  // Coordinated omission made visible: response p99 (150 us, dominated by
  // queue wait) strictly exceeds service p99 (100 us). The log-bucketed
  // histogram has ~2% resolution, hence the loose band.
  EXPECT_GT(sm.response_latency.P99(), sm.service_latency.P99());
  EXPECT_NEAR(static_cast<double>(sm.service_latency.P99()), 100000.0,
              4000.0);
  EXPECT_NEAR(static_cast<double>(sm.response_latency.P99()), 150000.0,
              6000.0);

  // The queue instruments saw the same run: 201 admitted, 199 shed, and a
  // high-water depth of exactly one.
  const MetricsSnapshot& metrics = run.observability.metrics;
  EXPECT_EQ(CounterValue(metrics, "service.admitted"), 201u);
  EXPECT_EQ(CounterValue(metrics, "service.shed"), 199u);
  EXPECT_EQ(GaugeValue(metrics, "service.queue_peak_depth"), 1);
  EXPECT_EQ(GaugeValue(metrics, "service.queue_depth"), 0);
}

TEST(ServiceModeTest, ClosedLoopRunsReportNoOpenLoopOperations) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  SlowSimSut sut(&clock);
  RunSpec spec = MakeOverloadSpec();
  spec.name = "service_closed_loop_baseline";
  spec.service = ServiceSpec();  // Open-loop pacing, no admission queue.
  spec.phases[0].arrival = ArrivalPattern::kClosedLoop;
  spec.phases[0].arrival_rate_qps = 0.0;
  const Result<RunResult> result = driver.Run(spec, &sut);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().metrics.service.open_loop_operations, 0u);
  EXPECT_EQ(result.value().metrics.service.queue_shed_operations, 0u);
  EXPECT_FALSE(result.value().metrics.service.enabled);
}

// ---------------------------------------------------------------------------
// Demo spec: determinism and the overload acceptance properties.

RunResult RunDemoOnce(uint32_t workers) {
  Result<RunSpec> loaded = LoadRunSpecFile(std::string(LSBENCH_SPEC_DIR) +
                                           "/service_overload_demo.lsb");
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  RunSpec spec = std::move(loaded).value();
  spec.execution.workers = workers;
  spec.observability.trace = true;
  spec.observability.profile = true;
  spec.observability.metrics = true;

  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  LearnedSystemOptions sut_options;
  LearnedKvSystem sut(sut_options, &clock);
  Result<RunResult> result = driver.Run(spec, &sut);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

class ServiceDeterminismTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ServiceDeterminismTest, RepeatedDemoRunsAreByteIdentical) {
  const uint32_t workers = GetParam();
  const RunResult a = RunDemoOnce(workers);
  const RunResult b = RunDemoOnce(workers);
  EXPECT_EQ(SerializeEventStream(a.events), SerializeEventStream(b.events));
  EXPECT_EQ(RenderTraceFile(a.observability, a.run_name, a.sut_name, workers),
            RenderTraceFile(b.observability, b.run_name, b.sut_name, workers));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ServiceDeterminismTest,
                         ::testing::Values(1u, 4u));

TEST(ServiceModeTest, DemoSpecMeetsTheOverloadAcceptanceCriteria) {
  const RunResult run = RunDemoOnce(1);
  const ServiceMetrics& sm = run.metrics.service;
  ASSERT_TRUE(sm.enabled);
  ASSERT_GT(sm.open_loop_operations, 0u);

  // Overload sheds load — but stays inside the configured budget.
  EXPECT_GT(sm.queue_shed_operations, 0u);
  EXPECT_GT(sm.shed_fraction, 0.0);
  EXPECT_LE(sm.shed_fraction, sm.max_shed_fraction);
  EXPECT_TRUE(sm.shed_bound_met);

  // Coordinated omission correction: measuring from the intended arrival
  // can only add queueing delay, so the intended-arrival (response) p99
  // dominates the measured-issue (service) p99.
  EXPECT_GE(sm.response_latency.P99(), sm.service_latency.P99());

  // Overloaded at 8x sustainable: goodput saturates well below offered.
  EXPECT_GT(sm.offered_qps, sm.achieved_qps);

  // The run terminated cleanly *in degraded mode*: the fault storm tripped
  // the breaker at least once.
  EXPECT_GT(run.metrics.resilience.breaker_opens, 0u);
}

}  // namespace
}  // namespace lsbench
