#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/drift.h"
#include "core/driver.h"
#include "core/event_sink.h"
#include "core/run_spec.h"
#include "core/spec_text.h"
#include "core/specialization.h"
#include "data/dataset.h"
#include "sut/concurrent_kv.h"
#include "sut/fault_plan.h"
#include "sut/systems.h"

namespace lsbench {
namespace {

/// A small two-phase spec over two distinct datasets, deterministic in
/// simulation mode.
RunSpec MakeTwoPhaseSpec(uint64_t seed = 42, bool with_holdout = false) {
  RunSpec spec;
  spec.name = "test_run_" + std::to_string(seed) +
              (with_holdout ? "_holdout" : "");
  spec.seed = seed;
  DatasetOptions options;
  options.num_keys = 5000;
  options.seed = seed;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
  options.seed = seed + 1;
  spec.datasets.push_back(GenerateDataset(GaussianUnit(0.3, 0.05), options));

  PhaseSpec p0;
  p0.name = "uniform_reads";
  p0.dataset_index = 0;
  p0.mix = OperationMix::ReadMostly();
  p0.num_operations = 2000;
  spec.phases.push_back(p0);

  PhaseSpec p1;
  p1.name = "gaussian_mixed";
  p1.dataset_index = 1;
  p1.mix = OperationMix::ReadWrite();
  p1.num_operations = 2000;
  p1.transition_in = TransitionKind::kLinear;
  p1.transition_operations = 500;
  p1.holdout = with_holdout;
  spec.phases.push_back(p1);

  spec.interval_nanos = 100000000;        // 100 ms.
  spec.boxplot_sample_nanos = 10000000;   // 10 ms.
  return spec;
}

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override { BenchmarkDriver::ResetHoldoutRegistryForTesting(); }
};

TEST_F(DriverTest, ValidatesSpec) {
  BenchmarkDriver driver;
  BTreeSystem sut;
  RunSpec empty;
  EXPECT_TRUE(driver.Run(empty, &sut).status().IsInvalidArgument());

  RunSpec bad = MakeTwoPhaseSpec();
  bad.phases[0].dataset_index = 99;
  EXPECT_TRUE(driver.Run(bad, &sut).status().IsInvalidArgument());

  RunSpec zero_ops = MakeTwoPhaseSpec();
  zero_ops.phases[0].num_operations = 0;
  EXPECT_TRUE(driver.Run(zero_ops, &sut).status().IsInvalidArgument());
}

// A parsed spec only describes its datasets. Run takes only the RunSpec
// that BuildDatasets returns, so running an unbuilt spec does not compile.
using RunMethod = decltype(&BenchmarkDriver::Run);
static_assert(std::is_invocable_v<RunMethod, BenchmarkDriver&, const RunSpec&,
                                  SystemUnderTest*>);
static_assert(!std::is_invocable_v<RunMethod, BenchmarkDriver&,
                                   const ParsedSpec&, SystemUnderTest*>);

TEST_F(DriverTest, SimulatedRunProducesFullEventStream) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 100000;  // 100 us per op.
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  const RunSpec spec = MakeTwoPhaseSpec();

  const Result<RunResult> result = driver.Run(spec, &sut);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& run = result.value();

  EXPECT_EQ(run.events.size(), 4000u);
  ASSERT_EQ(run.boundaries.size(), 2u);
  EXPECT_EQ(run.boundaries[0].operations, 2000u);
  EXPECT_EQ(run.boundaries[1].phase, 1);

  // Timestamps are sorted and phases contiguous.
  for (size_t i = 1; i < run.events.size(); ++i) {
    EXPECT_GE(run.events[i].timestamp_nanos,
              run.events[i - 1].timestamp_nanos);
    EXPECT_GE(run.events[i].phase, run.events[i - 1].phase);
  }
  // Simulated service time: 100 us/op, closed loop -> throughput 10k ops/s.
  EXPECT_NEAR(run.metrics.mean_throughput, 10000.0, 100.0);
  EXPECT_EQ(run.metrics.total_operations, 4000u);
  EXPECT_EQ(run.metrics.phases.size(), 2u);
  EXPECT_EQ(run.sut_name, "btree_system");
  EXPECT_EQ(run.load_seconds, 0.0);  // Virtual clock: load "takes" no time.
}

TEST_F(DriverTest, DeterministicInSimulationMode) {
  const RunSpec spec = MakeTwoPhaseSpec();
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
  for (size_t i = 0; i < a.events.size(); i += 97) {
    EXPECT_EQ(a.events[i].timestamp_nanos, b.events[i].timestamp_nanos);
    EXPECT_EQ(a.events[i].type, b.events[i].type);
    EXPECT_EQ(a.events[i].ok, b.events[i].ok);
  }
}

TEST_F(DriverTest, TrainEventRecordedForLearnedSystems) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  LearnedKvSystem learned;
  const RunSpec spec = MakeTwoPhaseSpec();
  const Result<RunResult> result = driver.Run(spec, &learned);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().train_events.size(), 1u);
  EXPECT_EQ(result.value().train_events[0].work_items, 5000u);

  BTreeSystem traditional;
  const Result<RunResult> result2 = driver.Run(spec, &traditional);
  ASSERT_TRUE(result2.ok());
  EXPECT_TRUE(result2.value().train_events.empty());
}

TEST_F(DriverTest, OfflineTrainingCanBeDisabled) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  LearnedKvSystem learned;
  RunSpec spec = MakeTwoPhaseSpec();
  spec.offline_training = false;
  const Result<RunResult> result = driver.Run(spec, &learned);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().train_events.empty());
  // The run served from an untrained index: the load fitted no model.
  EXPECT_EQ(learned.model_builds(), 0u);
  EXPECT_EQ(learned.GetStats().model_error, 0.0);
}

TEST_F(DriverTest, ReusedSutReportsOnlyItsLastRun) {
  // One SUT object run twice on the same spec reports the same final stats
  // both times: a load clears the last run's training tallies.
  Result<RunSpec> spec =
      LoadRunSpecFile(std::string(LSBENCH_SPEC_DIR) + "/demo_shift.lsb");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.enforce_holdout_once = false;
  LearnedSystemOptions pgm_options;
  pgm_options.index_kind = LearnedSystemOptions::IndexKind::kPgm;
  LearnedKvSystem rmi(LearnedSystemOptions(), &clock);
  LearnedKvSystem pgm(pgm_options, &clock);
  AdaptiveKvSystem adaptive;
  for (SystemUnderTest* sut :
       std::initializer_list<SystemUnderTest*>{&rmi, &pgm, &adaptive}) {
    SCOPED_TRACE(sut->name());
    SutStats stats[2];
    for (SutStats& s : stats) {
      const Result<RunResult> run =
          BenchmarkDriver(&clock, options).Run(spec.value(), sut);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      s = run.value().final_sut_stats;
    }
    EXPECT_GT(stats[0].offline_train_items + stats[0].retrain_events, 0u);
    EXPECT_EQ(stats[1].memory_bytes, stats[0].memory_bytes);
    EXPECT_EQ(stats[1].offline_train_items, stats[0].offline_train_items);
    EXPECT_EQ(stats[1].online_train_seconds, stats[0].online_train_seconds);
    EXPECT_EQ(stats[1].retrain_events, stats[0].retrain_events);
    EXPECT_EQ(stats[1].model_error, stats[0].model_error);
  }
}

TEST_F(DriverTest, HoldoutSpecRunsOnlyOnce) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  const RunSpec spec = MakeTwoPhaseSpec(7, /*with_holdout=*/true);

  ASSERT_TRUE(driver.Run(spec, &sut).ok());
  const Result<RunResult> second = driver.Run(spec, &sut);
  EXPECT_TRUE(second.status().IsFailedPrecondition());

  // A spec without hold-out phases reruns freely.
  const RunSpec free_spec = MakeTwoPhaseSpec(8, /*with_holdout=*/false);
  EXPECT_TRUE(driver.Run(free_spec, &sut).ok());
  EXPECT_TRUE(driver.Run(free_spec, &sut).ok());
}

TEST_F(DriverTest, HoldoutEnforcementCanBeDisabled) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.enforce_holdout_once = false;
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  const RunSpec spec = MakeTwoPhaseSpec(9, /*with_holdout=*/true);
  EXPECT_TRUE(driver.Run(spec, &sut).ok());
  EXPECT_TRUE(driver.Run(spec, &sut).ok());
}

TEST_F(DriverTest, OpenLoopPoissonPacesArrivals) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 1000;  // Service much faster than arrivals.
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  RunSpec spec = MakeTwoPhaseSpec();
  spec.phases[0].arrival = ArrivalPattern::kPoisson;
  spec.phases[0].arrival_rate_qps = 10000.0;
  spec.phases[1].arrival = ArrivalPattern::kPoisson;
  spec.phases[1].arrival_rate_qps = 10000.0;

  const Result<RunResult> result = driver.Run(spec, &sut);
  ASSERT_TRUE(result.ok());
  // Open loop at 10k qps: mean throughput close to the offered load, not
  // the service rate (1M/s).
  EXPECT_NEAR(result.value().metrics.mean_throughput, 10000.0, 1500.0);
}

TEST_F(DriverTest, SpecializationReportSortsByPhi) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  const RunSpec spec = MakeTwoPhaseSpec();
  const RunResult run = driver.Run(spec, &sut).value();

  const SpecializationReport report =
      BuildSpecializationReport(spec, run, MeasureDriftTrajectory(spec));
  ASSERT_EQ(report.entries.size(), 2u);
  // The baseline phase is at phi == 0 and sorts first.
  EXPECT_EQ(report.entries[0].phase, 0);
  EXPECT_EQ(report.entries[0].drift.factor, 0.0);
  // The gaussian phase with a different mix is clearly dissimilar.
  EXPECT_GT(report.entries[1].drift.factor, 0.1);
  EXPECT_GT(report.entries[1].drift.key_ks, 0.2);
  EXPECT_LT(report.entries[1].drift.key_overlap, 0.9);
  EXPECT_GT(report.entries[0].throughput_box.count, 0u);
}

/// A decorator that implements Load alone, as user decorators do, and
/// keeps the pairs it was given: the driver's LoadKeys reaches it through
/// the default adapter.
class LoadOnlyDecorator final : public SystemUnderTest {
 public:
  explicit LoadOnlyDecorator(SystemUnderTest* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    loaded = sorted_pairs;
    return inner_->Load(sorted_pairs);
  }
  OpResult Execute(const Operation& op) override {
    return inner_->Execute(op);
  }
  SutStats GetStats() const override { return inner_->GetStats(); }

  std::vector<KeyValue> loaded;

 private:
  SystemUnderTest* const inner_;
};

TEST_F(DriverTest, LoadsFirstPhaseDatasetThroughLoadOnlyDecorator) {
  // Phase 0 reads the second dataset, so loading dataset 0 would show.
  RunSpec spec = MakeTwoPhaseSpec();
  spec.phases[0].dataset_index = 1;
  spec.phases[1].dataset_index = 0;
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  BTreeSystem inner;
  LoadOnlyDecorator sut(&inner);
  const Result<RunResult> run = driver.Run(spec, &sut);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<Key>& keys = spec.datasets[1].keys;
  ASSERT_EQ(sut.loaded.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(sut.loaded[i], KeyValue(keys[i], i)) << "position " << i;
  }
}

/// Property sweep: randomized specs (mixes, access patterns, arrivals,
/// transitions, phase counts) must always produce a structurally valid
/// event stream.
class DriverPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { BenchmarkDriver::ResetHoldoutRegistryForTesting(); }
};

TEST_P(DriverPropertyTest, RandomSpecsProduceCoherentRuns) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  RunSpec spec;
  spec.name = "prop_" + std::to_string(seed);
  spec.seed = seed;
  spec.interval_nanos = 10000000;
  spec.boxplot_sample_nanos = 1000000;

  const int num_datasets = 1 + static_cast<int>(rng.NextBounded(3));
  for (int d = 0; d < num_datasets; ++d) {
    DatasetOptions options;
    options.num_keys = 500 + rng.NextBounded(3000);
    options.seed = seed * 10 + d;
    switch (rng.NextBounded(3)) {
      case 0:
        spec.datasets.push_back(GenerateDataset(UniformUnit(), options));
        break;
      case 1:
        spec.datasets.push_back(
            GenerateDataset(LognormalUnit(0, 1.0), options));
        break;
      default:
        spec.datasets.push_back(
            GenerateDataset(ClusteredUnit(4, 0.01, seed), options));
        break;
    }
  }
  const int num_phases = 1 + static_cast<int>(rng.NextBounded(4));
  uint64_t total_ops = 0;
  for (int p = 0; p < num_phases; ++p) {
    PhaseSpec phase;
    phase.name = "p" + std::to_string(p);
    phase.dataset_index = static_cast<int>(rng.NextBounded(num_datasets));
    phase.mix.get = rng.NextDouble();
    phase.mix.scan = rng.NextDouble() * 0.3;
    phase.mix.insert = rng.NextDouble() * 0.5;
    phase.mix.update = rng.NextDouble() * 0.3;
    phase.mix.del = rng.NextDouble() * 0.2;
    phase.mix.range_count = rng.NextDouble() * 0.05;
    phase.access = static_cast<AccessPattern>(rng.NextBounded(5));
    phase.arrival = rng.NextBool(0.3) ? ArrivalPattern::kPoisson
                                      : ArrivalPattern::kClosedLoop;
    phase.arrival_rate_qps = 5000.0;
    phase.num_operations = 200 + rng.NextBounded(1500);
    phase.transition_in = static_cast<TransitionKind>(rng.NextBounded(3));
    phase.transition_operations =
        rng.NextBounded(phase.num_operations / 2 + 1);
    phase.scan_length = 1 + static_cast<uint32_t>(rng.NextBounded(50));
    total_ops += phase.num_operations;
    spec.phases.push_back(phase);
  }

  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 10000;
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  const Result<RunResult> result = driver.Run(spec, &sut);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& run = result.value();

  // Global invariants.
  EXPECT_EQ(run.events.size(), total_ops);
  EXPECT_EQ(run.boundaries.size(), spec.phases.size());
  int32_t prev_phase = 0;
  int64_t prev_ts = 0;
  for (const OpEvent& e : run.events) {
    EXPECT_GE(e.timestamp_nanos, prev_ts);
    EXPECT_GE(e.phase, prev_phase);
    EXPECT_GE(e.latency_nanos, 0);
    prev_ts = e.timestamp_nanos;
    prev_phase = e.phase;
  }
  uint64_t phase_ops = 0;
  for (const PhaseMetrics& pm : run.metrics.phases) {
    phase_ops += pm.operations;
    EXPECT_GE(pm.duration_seconds, 0.0);
  }
  EXPECT_EQ(phase_ops, total_ops);
  EXPECT_EQ(run.metrics.cumulative.back().completed, total_ops);
  uint64_t band_total = 0;
  for (const LatencyBand& b : run.metrics.bands) band_total += b.Total();
  EXPECT_EQ(band_total, total_ops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST_F(DriverTest, StructuralHashDistinguishesSpecs) {
  const RunSpec a = MakeTwoPhaseSpec(1);
  const RunSpec b = MakeTwoPhaseSpec(2);
  RunSpec a2 = MakeTwoPhaseSpec(1);
  EXPECT_EQ(a.StructuralHash(), a2.StructuralHash());
  EXPECT_NE(a.StructuralHash(), b.StructuralHash());
  a2.phases[1].holdout = true;
  EXPECT_NE(a.StructuralHash(), a2.StructuralHash());
}

TEST_F(DriverTest, StructuralHashCoversFaultsAndResilience) {
  const RunSpec a = MakeTwoPhaseSpec(1);
  RunSpec faulted = MakeTwoPhaseSpec(1);
  FaultWindow w;
  w.execute_fail_rate = 0.1;
  faulted.faults.windows.push_back(w);
  EXPECT_NE(a.StructuralHash(), faulted.StructuralHash());

  RunSpec resilient = MakeTwoPhaseSpec(1);
  resilient.resilience.max_retries = 3;
  EXPECT_NE(a.StructuralHash(), resilient.StructuralHash());
}

TEST_F(DriverTest, LoadFailureProducesCleanError) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  RunSpec spec = MakeTwoPhaseSpec(20);
  spec.faults.fail_load = true;  // The single Load call fails.

  const Result<RunResult> result = driver.Run(spec, &sut);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());

  // The failed run leaves no partial state: with the fault removed, the
  // same driver reruns the spec to a full event stream.
  spec.faults.fail_load = false;
  const Result<RunResult> retry = driver.Run(spec, &sut);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.value().events.size(), 4000u);
}

TEST_F(DriverTest, ExpectedBatchElementsBoundsTheBatchDraws) {
  // Scalar phases keep no outcomes; a pure batch phase has no spread and
  // reserves the worst case.
  EXPECT_EQ(ExpectedBatchElements(1000, 0.0, 16, 6.0), 0u);
  EXPECT_EQ(ExpectedBatchElements(1000, 0.5, 1, 6.0), 0u);
  EXPECT_EQ(ExpectedBatchElements(1000, 1.0, 16, 6.0), 16000u);
  // open_loop's shape: 10% batch_get x 16 expects 1.6 batch elements per
  // op.
  const uint64_t expected = ExpectedBatchElements(400000, 0.1, 16, 0.0);
  EXPECT_EQ(expected, 640000u);
  const uint64_t reserved = ExpectedBatchElements(400000, 0.1, 16, 6.0);
  EXPECT_GT(reserved, expected);
  EXPECT_LT(reserved, expected + expected / 30);
  // A margin past the worst case is capped there.
  EXPECT_EQ(ExpectedBatchElements(4, 0.5, 16, 6.0), 64u);
}

TEST_F(DriverTest, UndersizedArenaRecordsTheSameShard) {
  // A sink reserved short of what it records spills through its overflow
  // path, at any point of a scalar or batch record, and records the same
  // shard as one reserved for every event.
  const auto record = [](EventSink* sink) {
    OpResult results[4];
    for (uint32_t i = 0; i < 4; ++i) {
      results[i].ok = i != 2;
      results[i].rows = i;
    }
    OpEvent proto;
    for (int64_t op = 0; op < 12; ++op) {
      proto.timestamp_nanos = 100 * op;
      proto.latency_nanos = op + 1;
      proto.issue_nanos = 100 * op - op;
      if (op % 3 == 0) {
        proto.batch = 4;
        sink->RecordBatch(proto, results, 4);
      } else {
        proto.batch = 1;
        sink->Record(proto);
      }
    }
  };
  constexpr size_t kEvents = 8 * 1 + 4 * 4;
  EventSink full(1);
  full.Reserve(kEvents);
  record(&full);
  const std::string expected = SerializeEventStream(full.TakeEvents());
  for (size_t reserved = 0; reserved < kEvents; ++reserved) {
    EventSink sink(1);
    sink.Reserve(reserved);
    record(&sink);
    EXPECT_EQ(sink.recorded(), kEvents);
    EXPECT_EQ(SerializeEventStream(sink.TakeEvents()), expected)
        << "reserved " << reserved;
  }
}

TEST_F(DriverTest, ExpectedSizeArenaRecordsEveryElement) {
  // Half the ops are batches of 4 elements, over 1-8 ops per worker at two
  // workers: every element of every drawn unit is recorded.
  constexpr uint32_t kWorkers = 2;
  constexpr uint32_t kBatch = 4;
  DatasetOptions options;
  options.num_keys = 500;
  options.seed = 3;
  const Dataset dataset = GenerateDataset(UniformUnit(), options);
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RunSpec spec;
    spec.name = "arena_" + std::to_string(seed);
    spec.seed = seed;
    spec.datasets.push_back(dataset);
    spec.execution.workers = kWorkers;
    PhaseSpec phase;
    phase.name = "half_batches";
    phase.mix = OperationMix{};
    phase.mix.get = 0.5;
    phase.mix.batch_get = 0.5;
    phase.batch_size = kBatch;
    phase.num_operations = kWorkers * (1 + seed % 8);
    spec.phases.push_back(phase);

    VirtualClock clock;
    DriverOptions driver_options;
    driver_options.virtual_clock = &clock;
    BenchmarkDriver driver(&clock, driver_options);
    BTreeSystem sut;
    const RunResult result = driver.Run(spec, &sut).value();
    uint64_t units = 0;
    for (const OpEvent& e : result.events) {
      if (e.batch == 1) ++units;
    }
    const uint64_t batch_events = result.events.size() - units;
    ASSERT_EQ(batch_events % kBatch, 0u) << "seed " << seed;
    EXPECT_EQ(units + batch_events / kBatch, phase.num_operations)
        << "seed " << seed;
  }
}

/// MakeTwoPhaseSpec in [service] mode, with an 8-deep admission queue per
/// worker. Phase 0's Poisson arrivals, half scalar gets and half
/// 16-element batch gets, come at about twice the simulated capacity, so
/// it sheds; phase 1's come well under it.
RunSpec MakeServiceBatchSpec(uint32_t workers) {
  RunSpec spec = MakeTwoPhaseSpec(31);
  spec.name = "service_batch16_w" + std::to_string(workers);
  PhaseSpec& phase = spec.phases[0];
  phase.mix = OperationMix{};
  phase.mix.get = 0.5;
  phase.mix.batch_get = 0.5;
  phase.batch_size = 16;
  phase.arrival = ArrivalPattern::kPoisson;
  phase.arrival_rate_qps = 2500.0 * workers;
  spec.phases[1].arrival = ArrivalPattern::kPoisson;
  spec.phases[1].arrival_rate_qps = 1000.0 * workers;
  spec.service.enabled = true;
  spec.service.queue_capacity = 8;
  spec.execution.workers = workers;
  return spec;
}

void ExpectSameHistogram(const Histogram& a, const Histogram& b,
                         const std::string& what, bool integer_values) {
  EXPECT_EQ(a.count(), b.count()) << what;
  // Integer-valued sums are exact in any order; a per-worker fold and a
  // fold of the merged stream add in different orders.
  if (integer_values) {
    EXPECT_EQ(a.sum(), b.sum()) << what;
  }
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_EQ(a.Median(), b.Median()) << what;
  EXPECT_EQ(a.P99(), b.P99()) << what;
}

/// The driver's metrics, folded from request units, against
/// ComputeRunMetrics over the run's own per-element stream.
void ExpectMetricsMatchElementFold(const RunSpec& spec,
                                   const RunResult& run) {
  const RunMetrics outside = ComputeRunMetrics(
      run.events, run.boundaries, MetricsOptions::FromSpec(spec));
  const RunMetrics& inside = run.metrics;
  EXPECT_EQ(inside.total_operations, run.events.size());
  EXPECT_EQ(inside.total_operations, outside.total_operations);
  EXPECT_EQ(inside.sla_nanos, outside.sla_nanos);
  EXPECT_EQ(inside.total_sla_violations, outside.total_sla_violations);
  ExpectSameHistogram(inside.overall_latency, outside.overall_latency,
                      "overall", true);
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    const OpTypeMetrics& x = inside.op_types[t];
    const OpTypeMetrics& y = outside.op_types[t];
    const std::string what = "op type " + std::to_string(t);
    EXPECT_EQ(x.operations, y.operations) << what;
    EXPECT_EQ(x.ok_operations, y.ok_operations) << what;
    EXPECT_EQ(x.failed_operations, y.failed_operations) << what;
    EXPECT_EQ(x.batch_sum, y.batch_sum) << what;
    ExpectSameHistogram(x.latency, y.latency, what, true);
    ExpectSameHistogram(x.effective_latency, y.effective_latency,
                        what + " effective", false);
  }
  ASSERT_EQ(inside.phases.size(), outside.phases.size());
  for (size_t p = 0; p < inside.phases.size(); ++p) {
    const PhaseMetrics& x = inside.phases[p];
    const PhaseMetrics& y = outside.phases[p];
    const std::string what = "phase " + std::to_string(p);
    EXPECT_EQ(x.operations, y.operations) << what;
    EXPECT_EQ(x.sla_violations, y.sla_violations) << what;
    EXPECT_EQ(x.failed_operations, y.failed_operations) << what;
    ExpectSameHistogram(x.latency, y.latency, what, true);
    EXPECT_EQ(x.throughput_box.count, y.throughput_box.count) << what;
    EXPECT_EQ(x.throughput_box.min, y.throughput_box.min) << what;
    EXPECT_EQ(x.throughput_box.median, y.throughput_box.median) << what;
    EXPECT_EQ(x.throughput_box.max, y.throughput_box.max) << what;
    EXPECT_EQ(x.throughput_box.mean, y.throughput_box.mean) << what;
    EXPECT_EQ(x.adjustment_excess_seconds, y.adjustment_excess_seconds)
        << what;
  }
  ASSERT_EQ(inside.bands.size(), outside.bands.size());
  for (size_t i = 0; i < inside.bands.size(); ++i) {
    EXPECT_EQ(inside.bands[i].within_sla, outside.bands[i].within_sla) << i;
    EXPECT_EQ(inside.bands[i].violated, outside.bands[i].violated) << i;
  }
  EXPECT_EQ(inside.resilience.failed_operations,
            outside.resilience.failed_operations);
  EXPECT_EQ(inside.resilience.timeouts, outside.resilience.timeouts);
  EXPECT_EQ(inside.resilience.shed_operations,
            outside.resilience.shed_operations);
  EXPECT_EQ(inside.resilience.total_retries, outside.resilience.total_retries);
  EXPECT_EQ(inside.service.open_loop_operations,
            outside.service.open_loop_operations);
  EXPECT_EQ(inside.service.queue_shed_operations,
            outside.service.queue_shed_operations);
  ExpectSameHistogram(inside.service.response_latency,
                      outside.service.response_latency, "response", true);
  ExpectSameHistogram(inside.service.service_latency,
                      outside.service.service_latency, "service", true);
  ExpectSameHistogram(inside.service.queue_wait, outside.service.queue_wait,
                      "queue wait", true);
}

TEST_F(DriverTest, UnitFoldMatchesTheElementFold) {
  for (const uint32_t workers : {1u, 4u}) {
    std::vector<RunSpec> specs;
    for (const char* file : {"batch_demo.lsb", "resilience_demo.lsb"}) {
      Result<RunSpec> spec =
          LoadRunSpecFile(std::string(LSBENCH_SPEC_DIR) + "/" + file);
      ASSERT_TRUE(spec.ok()) << file << ": " << spec.status().ToString();
      specs.push_back(std::move(spec).value());
    }
    specs.push_back(MakeServiceBatchSpec(workers));
    for (RunSpec& spec : specs) {
      spec.execution.workers = workers;
      SCOPED_TRACE(spec.name + " workers=" + std::to_string(workers));
      VirtualClock clock;
      DriverOptions options;
      options.virtual_clock = &clock;
      options.enforce_holdout_once = false;
      BenchmarkDriver driver(&clock, options);
      BTreeSystem sut;
      const Result<RunResult> run = driver.Run(spec, &sut);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      if (spec.service.enabled) {
        EXPECT_GT(run.value().metrics.service.queue_shed_operations, 0u);
      }
      ExpectMetricsMatchElementFold(spec, run.value());
    }
  }
}

TEST_F(DriverTest, UnitAuditNamesThePhaseAndWorkerOfAMissingUnit) {
  // Two workers, two phases of 6 request units (3 per worker); the middle
  // unit of each is a batch of 4.
  const std::vector<PhaseBoundary> boundaries = {{0, 0, 1000, false, 6},
                                                 {1, 1000, 2000, false, 6}};
  const MetricsOptions options;
  std::vector<UnitShard> shards;
  OpResult results[4];
  for (uint32_t w = 0; w < 2; ++w) {
    EventSink sink(w);
    for (int32_t p = 0; p < 2; ++p) {
      for (int64_t i = 0; i < 3; ++i) {
        OpEvent proto;
        proto.timestamp_nanos = 1000 * p + 10 * i + w;
        proto.latency_nanos = 5;
        proto.phase = p;
        if (i == 1) {
          proto.type = OpType::kBatchGet;
          sink.RecordBatch(proto, results, 4);
        } else {
          sink.Record(proto);
        }
      }
    }
    shards.push_back(sink.TakeUnits());
  }
  const auto audit = [&](const std::vector<UnitShard>& run_shards,
                         uint64_t extra_phase0_elements) {
    std::vector<ShardAccumulation> folds(
        2, ShardAccumulation(boundaries, options, 1000));
    ShardAccumulation run(boundaries, options, 1000);
    std::vector<EventStream> units;
    for (uint32_t w = 0; w < 2; ++w) {
      EXPECT_TRUE(folds[w].AccumulateUnits(run_shards[w]).ok());
      run.Merge(folds[w]);
      units.push_back(run_shards[w].units);
    }
    RunMetrics metrics = FinalizeRunMetrics(
        run, MergeEventShards(std::move(units)), options, EventGrain::kUnit);
    metrics.phases[0].operations += extra_phase0_elements;
    return AuditUnitAccounting(folds, metrics);
  };
  EXPECT_TRUE(audit(shards, 0).ok());

  // Worker 1 loses its first phase-1 unit, a scalar one (so its outcomes
  // still match its batch units).
  std::vector<UnitShard> missing = shards;
  EventStream& units = missing[1].units;
  units.erase(std::find_if(units.begin(), units.end(),
                           [](const OpEvent& e) { return e.phase == 1; }));
  const Status lost = audit(missing, 0);
  EXPECT_TRUE(lost.IsInternal()) << lost.ToString();
  EXPECT_NE(lost.message().find("phase 1 worker 1: recorded 2 request units"),
            std::string::npos)
      << lost.ToString();

  const Status miscounted = audit(shards, 1);
  EXPECT_TRUE(miscounted.IsInternal()) << miscounted.ToString();
  EXPECT_NE(miscounted.message().find("phase 0: the workers' units carry 12 "
                                      "elements, but the phase's metrics "
                                      "count 13"),
            std::string::npos)
      << miscounted.ToString();
}

TEST_F(DriverTest, UnitFoldRejectsOutcomesThatDoNotMatchItsUnits) {
  EventSink sink(0);
  OpEvent proto;
  proto.type = OpType::kBatchGet;
  OpResult results[4];
  sink.RecordBatch(proto, results, 4);
  UnitShard shard = sink.TakeUnits();
  const std::vector<PhaseBoundary> boundaries = {{0, 0, 1000, false, 1}};
  shard.outcomes.pop_back();
  ShardAccumulation fold(boundaries, MetricsOptions(), 1000);
  const Status status = fold.AccumulateUnits(shard);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(status.message(),
            "the units keep 4 element outcomes, but the shard holds 3");
}

uint64_t CounterValue(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [metric, value] : snapshot.counters) {
    if (metric == name) return value;
  }
  return 0;
}

TEST_F(DriverTest, RegistryCounterAuditHoldsUnderQueueSheds) {
  // A [service] run whose admission queue sheds batch units, whose
  // injected faults are retried and whose breaker opens, with the metrics
  // registry armed: every unit the streams drew was recorded (a shed one
  // as one unit of all its elements), every attempt the executors made is
  // a unit's retries plus its one try, every queue shed was recorded, and
  // every unit was offered to a queue once, so the end-of-run counter
  // audit passes. Off by one, it names the counter.
  for (const auto& [policy, workers] :
       {std::pair{OverloadPolicy::kDropNewest, 1u},
        std::pair{OverloadPolicy::kDropNewest, 4u},
        std::pair{OverloadPolicy::kDropOldest, 1u},
        std::pair{OverloadPolicy::kDropOldest, 4u}}) {
    SCOPED_TRACE(OverloadPolicyToString(policy) +
                 " workers=" + std::to_string(workers));
    RunSpec spec = MakeServiceBatchSpec(workers);
    spec.service.policy = policy;
    spec.observability.metrics = true;
    FaultWindow faults;
    faults.execute_fail_rate = 0.4;
    spec.faults.windows.push_back(faults);
    spec.resilience.max_retries = 2;
    spec.resilience.backoff_initial_nanos = 10000;
    spec.resilience.breaker_enabled = true;
    spec.resilience.breaker_window_ops = 20;
    spec.resilience.breaker_cooldown_nanos = 1000000;
    spec.resilience.breaker_half_open_probes = 2;
    VirtualClock clock;
    DriverOptions options;
    options.virtual_clock = &clock;
    options.enforce_holdout_once = false;
    BenchmarkDriver driver(&clock, options);
    BTreeSystem sut;
    const Result<RunResult> run = driver.Run(spec, &sut);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const RunResult& result = run.value();
    EXPECT_TRUE(std::any_of(
        result.events.begin(), result.events.end(),
        [](const OpEvent& e) { return e.queue_shed && e.batch > 1; }));
    uint64_t units = 0;
    for (const PhaseBoundary& b : result.boundaries) units += b.operations;
    const uint64_t elements = result.events.size();
    const MetricsSnapshot& counters = result.observability.metrics;
    EXPECT_EQ(CounterValue(counters, "stream.ops_issued"), units);
    EXPECT_EQ(CounterValue(counters, "sink.events_recorded"), elements);
    const uint64_t attempts = CounterValue(counters, "executor.attempts");
    const uint64_t queue_sheds = CounterValue(counters, "service.shed");
    const uint64_t admitted = CounterValue(counters, "service.admitted");
    EXPECT_GT(CounterValue(counters, "executor.retries"), 0u);
    EXPECT_GT(CounterValue(counters, "executor.shed"), 0u);
    EXPECT_GT(queue_sheds, 0u);
    EXPECT_GT(attempts, units - queue_sheds);
    // Drop-oldest admits every arrival and sheds admitted heads; drop-newest
    // refuses every arrival it sheds.
    EXPECT_EQ(admitted, policy == OverloadPolicy::kDropOldest
                            ? units
                            : units - queue_sheds);

    // A fold that agrees with every counter, then each count off by one.
    ShardAccumulation fold(result.boundaries,
                           MetricsOptions::FromSpec(spec), 0);
    fold.phases[0].units = units;
    fold.operations = elements;
    fold.attempts = attempts;
    fold.queue_shed_units = queue_sheds;
    EXPECT_TRUE(AuditRegistryCounters(counters, fold, spec.service).ok());
    const auto audit_off_by_one = [&](uint64_t* count) {
      ++*count;
      const Status status =
          AuditRegistryCounters(counters, fold, spec.service);
      --*count;
      EXPECT_TRUE(status.IsInternal()) << status.ToString();
      return status.message();
    };
    EXPECT_EQ(audit_off_by_one(&fold.phases[0].units),
              "counter stream.ops_issued = " + std::to_string(units) +
                  ", but the folds count " + std::to_string(units + 1) +
                  " request units");
    EXPECT_EQ(audit_off_by_one(&fold.operations),
              "counter sink.events_recorded = " + std::to_string(elements) +
                  ", but the folds count " + std::to_string(elements + 1) +
                  " elements");
    EXPECT_EQ(audit_off_by_one(&fold.attempts),
              "counter executor.attempts = " + std::to_string(attempts) +
                  ", but the folds count " + std::to_string(attempts + 1) +
                  " attempts");
    EXPECT_EQ(audit_off_by_one(&fold.queue_shed_units),
              "counter service.shed = " + std::to_string(queue_sheds) +
                  ", but the folds count " +
                  std::to_string(queue_sheds + 1) +
                  " queue-shed request units");

    // The admitted counter is checked against the folds' offered units,
    // on service runs only.
    MetricsSnapshot bumped = counters;
    for (auto& [metric, value] : bumped.counters) {
      if (metric == "service.admitted") ++value;
    }
    const Status status = AuditRegistryCounters(bumped, fold, spec.service);
    EXPECT_TRUE(status.IsInternal()) << status.ToString();
    EXPECT_EQ(status.message(),
              "counter service.admitted = " + std::to_string(admitted + 1) +
                  ", but the folds count " + std::to_string(admitted) +
                  " offered request units not shed on arrival");
    EXPECT_TRUE(AuditRegistryCounters(bumped, fold, ServiceSpec{}).ok());
  }
}

/// A thread-safe user SUT that tallies which op classes reach each entry,
/// then serves them from a partitioned store. The driver runs it through
/// the one worker loop and retry loop every SUT runs, so the tallies show
/// which entry each op class reaches.
class RoutingRecorder final : public SystemUnderTest {
 public:
  explicit RoutingRecorder(uint32_t batch_size) : batch_size_(batch_size) {}
  std::string name() const override { return "routing_recorder"; }
  SutConcurrency concurrency() const override {
    return SutConcurrency::kThreadSafe;
  }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    return inner_.Load(sorted_pairs);
  }
  OpResult Execute(const Operation& op) override {
    ++execute_calls[static_cast<size_t>(op.type)];
    return inner_.Execute(op);
  }
  void ExecuteBatch(const Operation& op, OpResult* results) override {
    ++batch_calls[static_cast<size_t>(op.type)];
    if (op.batch_size != batch_size_) ++wrong_batch_sizes;
    inner_.ExecuteBatch(op, results);
  }
  SutStats GetStats() const override { return inner_.GetStats(); }

  std::array<std::atomic<uint64_t>, kNumOpTypes> execute_calls{};
  std::array<std::atomic<uint64_t>, kNumOpTypes> batch_calls{};
  std::atomic<uint64_t> wrong_batch_sizes{0};

 private:
  const uint32_t batch_size_;
  PartitionedKvSystem inner_{4};
};

class RoutingTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override { BenchmarkDriver::ResetHoldoutRegistryForTesting(); }
};

// The driver sends scalar ops to Execute and batch ops to ExecuteBatch,
// whole, through faults, retries and an opening breaker. The bundled SUTs
// serve each op class through that one entry only.
TEST_P(RoutingTest, EachOpClassReachesOneEntry) {
  constexpr uint32_t kBatch = 8;
  RunSpec spec = MakeTwoPhaseSpec(57);
  for (PhaseSpec& phase : spec.phases) {
    phase.mix = OperationMix::ReadWrite();
    phase.mix.batch_get = 0.2;
    phase.mix.batch_put = 0.1;
    phase.batch_size = kBatch;
  }
  FaultWindow window;
  window.execute_fail_rate = 0.2;
  window.execute_fail_code = StatusCode::kUnavailable;
  spec.faults.windows.push_back(window);
  spec.resilience.max_retries = 2;
  spec.resilience.backoff_initial_nanos = 10000;
  spec.resilience.breaker_enabled = true;
  spec.resilience.breaker_window_ops = 20;
  spec.resilience.breaker_failure_threshold = 0.3;
  spec.resilience.breaker_cooldown_nanos = 100000;
  spec.execution.workers = GetParam();

  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  RoutingRecorder sut(kBatch);
  const Result<RunResult> run = driver.Run(spec, &sut);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ResilienceMetrics& resilience = run.value().metrics.resilience;
  EXPECT_GT(resilience.total_retries, 0u);
  EXPECT_GT(resilience.breaker_opens, 0u);

  uint64_t scalar_calls = 0;
  uint64_t batch_unit_calls = 0;
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    if (IsBatchOp(static_cast<OpType>(t))) {
      EXPECT_EQ(sut.execute_calls[t], 0u) << "type " << t;
      batch_unit_calls += sut.batch_calls[t];
    } else {
      EXPECT_EQ(sut.batch_calls[t], 0u) << "type " << t;
      scalar_calls += sut.execute_calls[t];
    }
  }
  EXPECT_GT(scalar_calls, 0u);
  EXPECT_GT(batch_unit_calls, 0u);
  EXPECT_EQ(sut.wrong_batch_sizes, 0u);
  // The executor read the results ExecuteBatch wrote for each element.
  for (const OpType type : {OpType::kBatchGet, OpType::kBatchPut}) {
    EXPECT_GT(
        run.value().metrics.op_types[static_cast<size_t>(type)].ok_operations,
        0u);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, RoutingTest,
                         ::testing::Values(1u, 4u));

TEST_F(DriverTest, HoldoutRegistryResetClearsCrossTestState) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  const RunSpec spec = MakeTwoPhaseSpec(21, /*with_holdout=*/true);

  ASSERT_TRUE(driver.Run(spec, &sut).ok());
  ASSERT_FALSE(driver.Run(spec, &sut).ok());

  // A reset fully clears the registry: the spec gets a fresh single-run
  // budget, and exactly one.
  BenchmarkDriver::ResetHoldoutRegistryForTesting();
  ASSERT_TRUE(driver.Run(spec, &sut).ok());
  EXPECT_FALSE(driver.Run(spec, &sut).ok());
}

}  // namespace
}  // namespace lsbench
