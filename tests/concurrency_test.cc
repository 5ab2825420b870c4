#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/event_sink.h"
#include "core/metrics.h"
#include "core/run_spec.h"
#include "data/dataset.h"
#include "sut/concurrent_kv.h"
#include "sut/serializing.h"
#include "sut/systems.h"

namespace lsbench {
namespace {

/// Deterministic two-phase spec for simulated multi-worker runs.
RunSpec MakeSpec(uint64_t seed, uint32_t workers) {
  RunSpec spec;
  spec.name = "conc_" + std::to_string(seed) + "_w" + std::to_string(workers);
  spec.seed = seed;
  DatasetOptions options;
  options.num_keys = 4000;
  options.seed = seed;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  options.seed = seed + 1;
  spec.datasets.push_back(GenerateDataset(GaussianUnit(0.4, 0.1), options));

  PhaseSpec p0;
  p0.name = "reads";
  p0.dataset_index = 0;
  p0.mix = OperationMix::ReadMostly();
  p0.num_operations = 1500;
  spec.phases.push_back(p0);

  PhaseSpec p1;
  p1.name = "mixed";
  p1.dataset_index = 1;
  p1.mix = OperationMix::ReadWrite();
  p1.num_operations = 1500;
  p1.transition_in = TransitionKind::kLinear;
  p1.transition_operations = 400;
  spec.phases.push_back(p1);

  spec.interval_nanos = 100000000;
  spec.boxplot_sample_nanos = 10000000;
  spec.execution.workers = workers;
  return spec;
}

/// MakeSpec's phases as open-loop [service] traffic with a batch class in
/// the mix, offered at 1.5x what 100 us of virtual service per op sustains,
/// so the admission queues shed.
RunSpec MakeServiceSpec(uint64_t seed, uint32_t workers) {
  RunSpec spec = MakeSpec(seed, workers);
  spec.name += "_service";
  for (PhaseSpec& phase : spec.phases) {
    phase.arrival = ArrivalPattern::kPoisson;
    phase.arrival_rate_qps = 15000.0 * workers;
    phase.mix.batch_get = 0.1;
    phase.batch_size = 8;
  }
  spec.service.enabled = true;
  spec.service.queue_capacity = 4;
  spec.service.policy = OverloadPolicy::kDropNewest;
  return spec;
}

RunResult RunSimulated(const RunSpec& spec, SystemUnderTest* sut) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  const Result<RunResult> result = driver.Run(spec, sut);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

void ExpectIdenticalStreams(const EventStream& a, const EventStream& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp_nanos, b[i].timestamp_nanos) << "event " << i;
    EXPECT_EQ(a[i].latency_nanos, b[i].latency_nanos) << "event " << i;
    EXPECT_EQ(a[i].phase, b[i].phase) << "event " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "event " << i;
    EXPECT_EQ(a[i].ok, b[i].ok) << "event " << i;
    EXPECT_EQ(a[i].rows, b[i].rows) << "event " << i;
    EXPECT_EQ(a[i].retries, b[i].retries) << "event " << i;
    EXPECT_EQ(a[i].failed, b[i].failed) << "event " << i;
    EXPECT_EQ(a[i].worker, b[i].worker) << "event " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "event " << i;
  }
}

void ExpectSameHistogram(const Histogram& a, const Histogram& b,
                         const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  // Sums of squares can round differently in another order; no report
  // prints them.
  EXPECT_DOUBLE_EQ(a.StdDev(), b.StdDev()) << what;
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << what << " q=" << q;
  }
}

void ExpectSameBox(const BoxPlotSummary& a, const BoxPlotSummary& b,
                   const std::string& what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.q1, b.q1) << what;
  EXPECT_EQ(a.median, b.median) << what;
  EXPECT_EQ(a.q3, b.q3) << what;
  EXPECT_EQ(a.max, b.max) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.whisker_low, b.whisker_low) << what;
  EXPECT_EQ(a.whisker_high, b.whisker_high) << what;
  EXPECT_EQ(a.outliers, b.outliers) << what;
}

/// Every RunMetrics field the metric layer computes. The driver stamps
/// breaker_opens, degraded_seconds and failed_trains itself.
void ExpectSameRunMetrics(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.total_operations, b.total_operations);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.mean_throughput, b.mean_throughput);
  EXPECT_EQ(a.sla_nanos, b.sla_nanos);
  EXPECT_EQ(a.total_sla_violations, b.total_sla_violations);
  ExpectSameHistogram(a.overall_latency, b.overall_latency, "overall");

  ASSERT_EQ(a.op_types.size(), b.op_types.size());
  for (size_t t = 0; t < a.op_types.size(); ++t) {
    const OpTypeMetrics& x = a.op_types[t];
    const OpTypeMetrics& y = b.op_types[t];
    const std::string what = "op type " + std::to_string(t);
    EXPECT_EQ(x.type, y.type) << what;
    EXPECT_EQ(x.operations, y.operations) << what;
    EXPECT_EQ(x.ok_operations, y.ok_operations) << what;
    EXPECT_EQ(x.failed_operations, y.failed_operations) << what;
    EXPECT_EQ(x.batch_sum, y.batch_sum) << what;
    ExpectSameHistogram(x.latency, y.latency, what);
    ExpectSameHistogram(x.effective_latency, y.effective_latency, what);
  }

  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t p = 0; p < a.phases.size(); ++p) {
    const PhaseMetrics& x = a.phases[p];
    const PhaseMetrics& y = b.phases[p];
    const std::string what = "phase " + std::to_string(p);
    EXPECT_EQ(x.phase, y.phase) << what;
    EXPECT_EQ(x.holdout, y.holdout) << what;
    EXPECT_EQ(x.operations, y.operations) << what;
    EXPECT_EQ(x.duration_seconds, y.duration_seconds) << what;
    EXPECT_EQ(x.mean_throughput, y.mean_throughput) << what;
    ExpectSameBox(x.throughput_box, y.throughput_box, what);
    ExpectSameHistogram(x.latency, y.latency, what);
    EXPECT_EQ(x.sla_violations, y.sla_violations) << what;
    EXPECT_EQ(x.adjustment_excess_seconds, y.adjustment_excess_seconds)
        << what;
    EXPECT_EQ(x.failed_operations, y.failed_operations) << what;
  }

  ASSERT_EQ(a.cumulative.size(), b.cumulative.size());
  for (size_t i = 0; i < a.cumulative.size(); ++i) {
    EXPECT_EQ(a.cumulative[i].t_nanos, b.cumulative[i].t_nanos) << i;
    EXPECT_EQ(a.cumulative[i].completed, b.cumulative[i].completed) << i;
  }
  ASSERT_EQ(a.bands.size(), b.bands.size());
  for (size_t i = 0; i < a.bands.size(); ++i) {
    EXPECT_EQ(a.bands[i].start_nanos, b.bands[i].start_nanos) << i;
    EXPECT_EQ(a.bands[i].within_sla, b.bands[i].within_sla) << i;
    EXPECT_EQ(a.bands[i].violated, b.bands[i].violated) << i;
  }
  EXPECT_EQ(a.area_vs_ideal, b.area_vs_ideal);

  const ResilienceMetrics& r = a.resilience;
  const ResilienceMetrics& q = b.resilience;
  EXPECT_EQ(r.failed_operations, q.failed_operations);
  EXPECT_EQ(r.timeouts, q.timeouts);
  EXPECT_EQ(r.shed_operations, q.shed_operations);
  EXPECT_EQ(r.total_retries, q.total_retries);
  EXPECT_EQ(r.availability, q.availability);

  const ServiceMetrics& x = a.service;
  const ServiceMetrics& y = b.service;
  EXPECT_EQ(x.enabled, y.enabled);
  EXPECT_EQ(x.policy, y.policy);
  EXPECT_EQ(x.queue_capacity, y.queue_capacity);
  ExpectSameHistogram(x.response_latency, y.response_latency, "response");
  ExpectSameHistogram(x.service_latency, y.service_latency, "service");
  ExpectSameHistogram(x.queue_wait, y.queue_wait, "queue wait");
  EXPECT_EQ(x.open_loop_operations, y.open_loop_operations);
  EXPECT_EQ(x.queue_shed_operations, y.queue_shed_operations);
  EXPECT_EQ(x.shed_fraction, y.shed_fraction);
  EXPECT_EQ(x.offered_qps, y.offered_qps);
  EXPECT_EQ(x.achieved_qps, y.achieved_qps);
  EXPECT_EQ(x.slo_p99_nanos, y.slo_p99_nanos);
  EXPECT_EQ(x.max_shed_fraction, y.max_shed_fraction);
  EXPECT_EQ(x.slo_met, y.slo_met);
  EXPECT_EQ(x.shed_bound_met, y.shed_bound_met);
}

/// The metrics the driver reports (each worker's shard folded on its own
/// thread, the folds merged) equal ComputeRunMetrics on the merged stream.
void ExpectDriverFoldMatchesMergedStream(const RunSpec& spec,
                                         const RunResult& run) {
  ExpectSameRunMetrics(run.metrics,
                       ComputeRunMetrics(run.events, run.boundaries,
                                         MetricsOptions::FromSpec(spec)));
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override { BenchmarkDriver::ResetHoldoutRegistryForTesting(); }
};

TEST_F(ConcurrencyTest, WorkerShareSplitsExactly) {
  for (uint64_t total : {0ull, 1ull, 7ull, 100ull, 4097ull}) {
    for (uint32_t workers : {1u, 2u, 3u, 4u, 16u}) {
      uint64_t sum = 0;
      for (uint32_t w = 0; w < workers; ++w) {
        const uint64_t share = WorkerShare(total, workers, w);
        EXPECT_LE(share, total / workers + 1);
        sum += share;
      }
      EXPECT_EQ(sum, total) << total << "/" << workers;
    }
  }
  // The full total lands on the single worker of a serial run.
  EXPECT_EQ(WorkerShare(123, 1, 0), 123u);
}

TEST_F(ConcurrencyTest, MergeOrdersByTimestampWorkerSeq) {
  EventSink sink0(0);
  EventSink sink1(1);
  OpEvent e;
  e.timestamp_nanos = 200;
  sink0.Record(e);
  e.timestamp_nanos = 100;
  sink1.Record(e);
  e.timestamp_nanos = 200;  // Ties with sink0's event; worker 1 sorts after.
  sink1.Record(e);

  std::vector<EventStream> shards;
  shards.push_back(sink0.TakeEvents());
  shards.push_back(sink1.TakeEvents());
  const EventStream merged = MergeEventShards(std::move(shards));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].timestamp_nanos, 100);
  EXPECT_EQ(merged[0].worker, 1u);
  EXPECT_EQ(merged[1].worker, 0u);  // Tie at t=200: worker 0 first.
  EXPECT_EQ(merged[2].worker, 1u);
  // Seq numbers are per-shard issue order.
  EXPECT_EQ(merged[0].seq, 0u);
  EXPECT_EQ(merged[2].seq, 1u);
}

TEST_F(ConcurrencyTest, SingleShardMergePreservesOrder) {
  EventSink sink(0);
  OpEvent e;
  e.timestamp_nanos = 50;
  sink.Record(e);
  e.timestamp_nanos = 10;  // Out of timestamp order on purpose.
  sink.Record(e);
  std::vector<EventStream> shards;
  shards.push_back(sink.TakeEvents());
  const EventStream merged = MergeEventShards(std::move(shards));
  ASSERT_EQ(merged.size(), 2u);
  // A single shard passes through untouched — the serial driver's stream is
  // never reordered, which is what makes workers=1 bit-identical.
  EXPECT_EQ(merged[0].timestamp_nanos, 50);
  EXPECT_EQ(merged[1].timestamp_nanos, 10);
}

TEST_F(ConcurrencyTest, SerialRunIsDeterministic) {
  const RunSpec spec = MakeSpec(11, 1);
  BTreeSystem sut_a;
  BTreeSystem sut_b;
  const RunResult a = RunSimulated(spec, &sut_a);
  const RunResult b = RunSimulated(spec, &sut_b);
  ExpectIdenticalStreams(a.events, b.events);
  for (const OpEvent& e : a.events) EXPECT_EQ(e.worker, 0u);
}

TEST_F(ConcurrencyTest, SimulatedFanOutIsDeterministic) {
  const RunSpec spec = MakeSpec(12, 4);
  PartitionedKvSystem sut_a(8);
  PartitionedKvSystem sut_b(8);
  const RunResult a = RunSimulated(spec, &sut_a);
  const RunResult b = RunSimulated(spec, &sut_b);
  ExpectIdenticalStreams(a.events, b.events);

  // Identical merged metrics, not just identical events.
  EXPECT_EQ(a.metrics.total_operations, b.metrics.total_operations);
  EXPECT_EQ(a.metrics.total_sla_violations, b.metrics.total_sla_violations);
  EXPECT_EQ(a.metrics.overall_latency.count(),
            b.metrics.overall_latency.count());
  EXPECT_EQ(a.metrics.overall_latency.sum(), b.metrics.overall_latency.sum());
  EXPECT_EQ(a.metrics.resilience.failed_operations,
            b.metrics.resilience.failed_operations);

  // All four workers produced events; merge is globally time-ordered with
  // contiguous phases.
  uint32_t seen_workers = 0;
  for (const OpEvent& e : a.events) seen_workers |= 1u << e.worker;
  EXPECT_EQ(seen_workers, 0b1111u);
  for (size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_GE(a.events[i].timestamp_nanos, a.events[i - 1].timestamp_nanos);
    EXPECT_GE(a.events[i].phase, a.events[i - 1].phase);
  }
  EXPECT_EQ(a.events.size(), 3000u);
}

TEST_F(ConcurrencyTest, SerialSutIsStripedUnderFanOut) {
  // A serial SUT (BTreeSystem) under workers > 1 runs behind the driver's
  // SerializingSut wrapper: the run must complete with every operation
  // accounted for and per-shard shares matching WorkerShare.
  const RunSpec spec = MakeSpec(13, 3);
  BTreeSystem sut;
  EXPECT_EQ(sut.concurrency(), SutConcurrency::kSerial);
  const RunResult run = RunSimulated(spec, &sut);
  ASSERT_EQ(run.events.size(), 3000u);

  std::vector<uint64_t> per_worker(3, 0);
  for (const OpEvent& e : run.events) {
    ASSERT_LT(e.worker, 3u);
    ++per_worker[e.worker];
  }
  uint64_t total_ops = 0;
  for (const PhaseSpec& phase : spec.phases) {
    total_ops += phase.num_operations;
  }
  for (uint32_t w = 0; w < 3; ++w) {
    uint64_t expect = 0;
    for (const PhaseSpec& phase : spec.phases) {
      expect += WorkerShare(phase.num_operations, 3, w);
    }
    EXPECT_EQ(per_worker[w], expect) << "worker " << w;
  }
  EXPECT_EQ(per_worker[0] + per_worker[1] + per_worker[2], total_ops);
}

TEST_F(ConcurrencyTest, FanOutWithFaultLanesIsDeterministic) {
  RunSpec spec = MakeSpec(14, 4);
  FaultWindow window;
  window.execute_fail_rate = 0.05;
  spec.faults.windows.push_back(window);
  spec.faults.seed = 99;
  spec.resilience.max_retries = 2;

  PartitionedKvSystem sut_a(8);
  PartitionedKvSystem sut_b(8);
  const RunResult a = RunSimulated(spec, &sut_a);
  const RunResult b = RunSimulated(spec, &sut_b);
  ExpectIdenticalStreams(a.events, b.events);
  EXPECT_EQ(a.fault_stats.injected_failures, b.fault_stats.injected_failures);
  EXPECT_GT(a.fault_stats.injected_failures, 0u);
  EXPECT_EQ(a.metrics.resilience.total_retries,
            b.metrics.resilience.total_retries);
}

TEST_F(ConcurrencyTest, RealClockFanOutRunsToCompletion) {
  // Actual std::thread fan-out (no virtual clock): small closed-loop run.
  // This is the path the TSan CI job exercises.
  RunSpec spec = MakeSpec(15, 4);
  spec.phases[0].num_operations = 400;
  spec.phases[1].num_operations = 400;
  spec.phases[1].transition_operations = 100;
  PartitionedKvSystem sut(8);
  EXPECT_EQ(sut.concurrency(), SutConcurrency::kThreadSafe);
  BenchmarkDriver driver;
  const Result<RunResult> result = driver.Run(spec, &sut);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& run = result.value();
  EXPECT_EQ(run.events.size(), 800u);
  for (size_t i = 1; i < run.events.size(); ++i) {
    EXPECT_GE(run.events[i].timestamp_nanos,
              run.events[i - 1].timestamp_nanos);
    EXPECT_GE(run.events[i].phase, run.events[i - 1].phase);
  }
  ExpectDriverFoldMatchesMergedStream(spec, run);
}

TEST_F(ConcurrencyTest, SerializingSutReportsThreadSafe) {
  BTreeSystem inner;
  SerializingSut wrapped(&inner);
  EXPECT_EQ(wrapped.concurrency(), SutConcurrency::kThreadSafe);
  EXPECT_EQ(wrapped.name(), inner.name());
}

TEST_F(ConcurrencyTest, PartitionedKvMatchesBTreeResults) {
  // Same spec, same seed, workers=1: the partitioned store must return the
  // same per-operation results as the reference BTree (it is a pure
  // sharding of the same ordered map).
  const RunSpec spec = MakeSpec(16, 1);
  BTreeSystem btree;
  PartitionedKvSystem partitioned(8);
  const RunResult a = RunSimulated(spec, &btree);
  const RunResult b = RunSimulated(spec, &partitioned);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].type, b.events[i].type) << "event " << i;
    EXPECT_EQ(a.events[i].ok, b.events[i].ok) << "event " << i;
    EXPECT_EQ(a.events[i].rows, b.events[i].rows) << "event " << i;
  }
}

TEST_F(ConcurrencyTest, ShardAccumulationCommutesWithMerge) {
  for (const bool service : {false, true}) {
    for (const uint32_t workers : {1u, 2u, 4u}) {
      for (const int64_t sla : {int64_t{0}, int64_t{150000}}) {
        RunSpec spec =
            service ? MakeServiceSpec(17, workers) : MakeSpec(17, workers);
        spec.sla.threshold_nanos = sla;  // 0 calibrates on phase 0.
        SCOPED_TRACE(spec.name + " sla=" + std::to_string(sla));
        PartitionedKvSystem sut(8);
        const RunResult run = RunSimulated(spec, &sut);
        if (service) {
          EXPECT_GT(run.metrics.service.queue_shed_operations, 0u);
        }
        ExpectDriverFoldMatchesMergedStream(spec, run);

        // Per-worker folds merged in reverse order give the same metrics
        // again.
        const MetricsOptions options = MetricsOptions::FromSpec(spec);
        std::vector<EventStream> shards(workers);
        for (const OpEvent& e : run.events) shards[e.worker].push_back(e);
        const ShardAccumulation empty(run.boundaries, options,
                                      run.metrics.sla_nanos);
        ShardAccumulation merged = empty;
        for (size_t w = shards.size(); w-- > 0;) {
          ShardAccumulation fold = empty;
          ASSERT_TRUE(fold.Accumulate(shards[w]).ok());
          merged.Merge(fold);
        }
        ExpectSameRunMetrics(run.metrics,
                             FinalizeRunMetrics(merged, run.events, options));
      }
    }
  }
}

TEST_F(ConcurrencyTest, ExecutionSpecValidation) {
  RunSpec spec = MakeSpec(18, 1);
  spec.execution.workers = 0;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  spec.execution.workers = 2000;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  spec.execution.workers = 4;
  EXPECT_TRUE(spec.Validate().ok());

  // Worker count is part of the structural identity of a run.
  const RunSpec one = MakeSpec(18, 1);
  const RunSpec four = MakeSpec(18, 4);
  EXPECT_NE(one.StructuralHash(), four.StructuralHash());
}

}  // namespace
}  // namespace lsbench
