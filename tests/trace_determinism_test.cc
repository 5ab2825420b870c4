// Determinism pinning for the observability layer: simulation-mode runs of
// specs/concurrent_demo.lsb must produce byte-identical merged event and
// trace streams run to run, at workers = 1 and workers = 4 alike, and
// observing a run (tracing + profiling + metrics) must not perturb the
// operation stream at all. These are the repo's strongest reproducibility
// guarantees; any regression fails loudly with the differing hashes.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/driver.h"
#include "core/event_sink.h"
#include "core/spec_text.h"
#include "data/dataset.h"
#include "obs/observability.h"
#include "sut/fault_plan.h"
#include "sut/systems.h"

namespace lsbench {
namespace {

RunSpec LoadSpecFile(const char* name) {
  Result<RunSpec> loaded =
      LoadRunSpecFile(std::string(LSBENCH_SPEC_DIR) + "/" + name);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

/// One full simulation run with observability on: virtual clock shared by
/// driver and SUT, so every exported timestamp is virtual.
RunResult RunOnce(uint32_t workers, bool observe = true) {
  RunSpec spec = LoadSpecFile("concurrent_demo.lsb");
  spec.execution.workers = workers;
  spec.observability.trace = observe;
  spec.observability.profile = observe;
  spec.observability.metrics = observe;

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

/// One full simulation run of an arbitrary spec with observability on.
RunResult RunSpecOnce(RunSpec spec, uint32_t workers) {
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

uint64_t MetricValue(const MetricsSnapshot& snapshot,
                     const std::string& name) {
  for (const auto& [metric, value] : snapshot.counters) {
    if (metric == name) return value;
  }
  return 0;
}

class TraceDeterminismTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TraceDeterminismTest, RepeatedRunsAreByteIdentical) {
  const uint32_t workers = GetParam();
  const RunResult a = RunOnce(workers);
  const RunResult b = RunOnce(workers);

  // The merged event stream and the --trace-out payload (merged spans,
  // stages and metrics) are byte-identical across two independent runs of
  // the same configuration.
  EXPECT_EQ(SerializeEventStream(a.events), SerializeEventStream(b.events));
  EXPECT_EQ(RenderTraceFile(a.observability, a.run_name, a.sut_name, workers),
            RenderTraceFile(b.observability, b.run_name, b.sut_name, workers));

  // The trace actually recorded the hot path.
  EXPECT_FALSE(a.observability.trace.empty());
  EXPECT_FALSE(a.observability.stages.empty());
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, TraceDeterminismTest,
                         ::testing::Values(1u, 4u));

class BatchDeterminismTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BatchDeterminismTest, BatchRunsAreByteIdentical) {
  // The batch dispatch path (kBatchGet/kBatchPut through the executor's
  // ExecuteBatch call, bulk-recorded into the event arena) is held to the
  // same reproducibility bar as the scalar path: two independent runs of
  // specs/batch_demo.lsb produce byte-identical merged event and trace
  // streams, at workers = 1 and workers = 4 alike.
  const uint32_t workers = GetParam();
  const RunResult a = RunSpecOnce(LoadSpecFile("batch_demo.lsb"), workers);
  const RunResult b = RunSpecOnce(LoadSpecFile("batch_demo.lsb"), workers);
  EXPECT_EQ(SerializeEventStream(a.events), SerializeEventStream(b.events));
  EXPECT_EQ(RenderTraceFile(a.observability, a.run_name, a.sut_name, workers),
            RenderTraceFile(b.observability, b.run_name, b.sut_name, workers));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, BatchDeterminismTest,
                         ::testing::Values(1u, 4u));

TEST(BatchDeterminismTest, BatchSizeOneIsBitIdenticalToScalar) {
  // batch_size = 1 is not "a batch of one": the generator degrades the draw
  // to the scalar op class with identical RNG consumption, so a batch_mix
  // spec at batch_size = 1 and the equivalent scalar-mix spec produce
  // byte-identical merged event streams. Batching is an execution-strategy
  // knob, never a semantic one.
  RunSpec scalar;
  scalar.name = "degenerate";
  scalar.seed = 99;
  DatasetOptions dataset_options;
  dataset_options.num_keys = 5000;
  dataset_options.seed = 3;
  scalar.datasets.push_back(GenerateDataset(UniformUnit(), dataset_options));
  PhaseSpec phase;
  phase.name = "p";
  phase.dataset_index = 0;
  phase.num_operations = 20000;
  phase.mix.get = 0.9;
  phase.mix.update = 0.1;
  scalar.phases.push_back(phase);

  RunSpec batched = scalar;
  batched.phases[0].mix.get = 0.0;
  batched.phases[0].mix.update = 0.0;
  batched.phases[0].mix.batch_get = 0.9;
  batched.phases[0].mix.batch_put = 0.1;
  batched.phases[0].batch_size = 1;

  for (const uint32_t workers : {1u, 4u}) {
    const RunResult a = RunSpecOnce(scalar, workers);
    const RunResult b = RunSpecOnce(batched, workers);
    EXPECT_EQ(SerializeEventStream(a.events), SerializeEventStream(b.events))
        << "workers=" << workers;
  }
}

TEST(TraceDeterminismTest, ObservingDoesNotPerturbTheRun) {
  // The exact same simulated run with observability fully on and fully off
  // must produce the same operation stream: hooks read clocks, they never
  // advance them or draw randomness.
  const RunResult observed = RunOnce(/*workers=*/4, /*observe=*/true);
  const RunResult blind = RunOnce(/*workers=*/4, /*observe=*/false);
  EXPECT_EQ(SerializeEventStream(observed.events),
            SerializeEventStream(blind.events));
  EXPECT_TRUE(blind.observability.trace.empty());
  EXPECT_TRUE(blind.observability.stages.empty());
}

TEST(TraceDeterminismTest, AggregateTotalsAgreeAcrossWorkerCounts) {
  // workers = 1 and workers = 4 run different (forked) operation streams,
  // so their traces differ span by span — but the aggregate accounting
  // must agree: same operation count, same issued/recorded totals, same
  // per-stage sample counts.
  const RunResult w1 = RunOnce(1);
  const RunResult w4 = RunOnce(4);
  EXPECT_EQ(w1.events.size(), w4.events.size());
  EXPECT_EQ(MetricValue(w1.observability.metrics, "stream.ops_issued"),
            MetricValue(w4.observability.metrics, "stream.ops_issued"));
  EXPECT_EQ(MetricValue(w1.observability.metrics, "sink.events_recorded"),
            MetricValue(w4.observability.metrics, "sink.events_recorded"));
  EXPECT_EQ(MetricValue(w1.observability.metrics, "executor.attempts"),
            MetricValue(w4.observability.metrics, "executor.attempts"));

  uint64_t w1_execute_samples = 0;
  uint64_t w4_execute_samples = 0;
  for (const PhaseStageBreakdown& pb : w1.observability.stages) {
    w1_execute_samples +=
        pb.stages[static_cast<size_t>(Stage::kExecute)].samples;
  }
  for (const PhaseStageBreakdown& pb : w4.observability.stages) {
    w4_execute_samples +=
        pb.stages[static_cast<size_t>(Stage::kExecute)].samples;
  }
  EXPECT_EQ(w1_execute_samples, w4_execute_samples);
}

// ---- Golden event-stream pins ----
// The tests above compare two runs of the same build, so they pass for any
// change that is consistent from run to run. These pin the bytes
// themselves: FNV-1a-64 hashes of the merged event stream (and of the
// --trace-out payload when tracing is compiled in) across execution mode x
// op class x faults x workers, on the integer-only B-tree so the hashes do
// not depend on SUT floating point. Any refactor of the worker loop, the
// executor or the event sink must keep every hash unchanged.

enum class PinMode { kClosedLoop, kOpenLoop, kService };

struct PinCase {
  PinMode mode;
  bool batch;
  bool faults;
  uint32_t workers;
  uint64_t events_hash;
  uint64_t trace_hash;
  /// Adds a phase-1 window with latency spikes and stalls on top of the
  /// wildcard fail window (only meaningful with `faults`).
  bool spikes = false;
};

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

RunSpec MakePinSpec(const PinCase& c) {
  RunSpec spec;
  spec.name = "golden_pin";
  spec.seed = 11;
  spec.interval_nanos = 10000000;  // 10 ms.
  for (const uint64_t seed : {5u, 6u}) {
    DatasetOptions dataset_options;
    dataset_options.num_keys = 2000;
    dataset_options.seed = seed;
    spec.datasets.push_back(GenerateDataset(UniformUnit(), dataset_options));
  }

  // Sustainable request-unit rate at the simulated 100 us per element.
  const uint32_t elements = c.batch ? 16 : 1;
  const double capacity_qps = 1e9 / (100000.0 * elements) * c.workers;
  for (int i = 0; i < 2; ++i) {
    PhaseSpec phase;
    phase.name = "p" + std::to_string(i);
    phase.dataset_index = i;
    phase.num_operations = 240;
    phase.transition_operations = i == 0 ? 0 : 40;
    if (c.batch) {
      phase.mix = OperationMix{0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 0.2};
      phase.batch_size = 16;
    } else {
      phase.mix = OperationMix{0.6, 0.05, 0.1, 0.2, 0.05, 0.0, 0.0, 0.0};
    }
    if (c.mode != PinMode::kClosedLoop) {
      phase.arrival = ArrivalPattern::kPoisson;
      phase.arrival_rate_qps =
          capacity_qps * (c.mode == PinMode::kService ? 4.0 : 0.5);
    }
    spec.phases.push_back(phase);
  }
  if (c.mode == PinMode::kService) {
    spec.service.enabled = true;
    spec.service.queue_capacity = 8;
    spec.service.policy = OverloadPolicy::kDropNewest;
  }
  if (c.faults) {
    FaultWindow window;
    window.execute_fail_rate = 0.2;
    window.execute_fail_code = StatusCode::kUnavailable;
    spec.faults.windows.push_back(window);
    if (c.spikes) {
      // Phase 1 keeps the failures and adds latency: 300 us spikes, and
      // stalls that outlast the op timeout.
      FaultWindow burst = window;
      burst.phase = 1;
      burst.latency_spike_rate = 0.2;
      burst.latency_spike_nanos = 300000;
      burst.stall_rate = 0.15;
      burst.stall_nanos = 25000000;
      spec.faults.windows.push_back(burst);
    }
    spec.resilience.op_timeout_nanos = 20000000;  // 20 ms.
    spec.resilience.max_retries = 2;
    spec.resilience.backoff_initial_nanos = 10000;
    spec.resilience.breaker_enabled = true;
    spec.resilience.breaker_window_ops = 20;
    spec.resilience.breaker_failure_threshold = 0.3;
    spec.resilience.breaker_cooldown_nanos = 1000000;
    spec.resilience.breaker_half_open_probes = 2;
    if (c.spikes) {
      // A closed-loop shed costs 1 us of virtual time, so the 1 ms
      // cooldown would shed every remaining op once the breaker trips;
      // 100 us lets closed-loop runs reach phase 1's window.
      spec.resilience.breaker_cooldown_nanos = 100000;
    }
  }
  spec.execution.workers = c.workers;
  spec.observability.trace = true;
  spec.observability.profile = true;
  spec.observability.metrics = true;
  return spec;
}

std::string PinCaseName(const ::testing::TestParamInfo<PinCase>& info) {
  const PinCase& c = info.param;
  const char* mode = c.mode == PinMode::kClosedLoop ? "Closed"
                     : c.mode == PinMode::kOpenLoop ? "Open"
                                                     : "Service";
  return std::string(mode) + (c.batch ? "Batch" : "Scalar") +
         (c.faults ? "Faults" : "Clean") + (c.spikes ? "Spikes" : "") + "W" +
         std::to_string(c.workers);
}

class GoldenEventStreamTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(GoldenEventStreamTest, HashesMatchThePinnedBytes) {
  const PinCase& c = GetParam();
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;
  Result<RunResult> result = driver.Run(MakePinSpec(c), &sut);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunResult& run = result.value();

  // Every axis of the matrix reaches the path it names.
  uint64_t queue_sheds = 0;
  uint64_t retried = 0;
  uint64_t breaker_sheds = 0;
  for (const OpEvent& e : run.events) {
    queue_sheds += e.queue_shed ? 1 : 0;
    retried += e.retries > 0 ? 1 : 0;
    breaker_sheds += e.shed ? 1 : 0;
  }
  EXPECT_EQ(queue_sheds > 0, c.mode == PinMode::kService);
  EXPECT_EQ(retried > 0, c.faults);
  EXPECT_EQ(breaker_sheds > 0, c.faults);
  EXPECT_EQ(run.fault_stats.injected_spikes > 0, c.spikes);
  EXPECT_EQ(run.fault_stats.injected_stalls > 0, c.spikes);

  EXPECT_EQ(Fnv1a64(SerializeEventStream(run.events)), c.events_hash)
      << std::hex << "events 0x" << Fnv1a64(SerializeEventStream(run.events));
  const std::string trace_file = RenderTraceFile(
      run.observability, run.run_name, run.sut_name, c.workers);
  EXPECT_EQ(Fnv1a64(trace_file), c.trace_hash)
      << std::hex << "trace 0x" << Fnv1a64(trace_file);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenEventStreamTest,
    ::testing::Values(
        // mode, batch, faults, workers, events hash, trace-file hash
        PinCase{PinMode::kClosedLoop, false, false, 1, 0x01601c0515b77361ull,
                0x53945cc6e9c96191ull},
        PinCase{PinMode::kClosedLoop, false, false, 4, 0xbe9cda40ac7ccde8ull,
                0x460e2f0b53a31acbull},
        PinCase{PinMode::kClosedLoop, false, true, 1, 0xf5aa6f862c297e2aull,
                0xbe916620b9bb7d89ull},
        PinCase{PinMode::kClosedLoop, false, true, 4, 0x51f1a1e9bdbf1f53ull,
                0x9bb69584c6c7b37eull},
        PinCase{PinMode::kClosedLoop, true, false, 1, 0xaeed613658e5a459ull,
                0x4d7eab934469835eull},
        PinCase{PinMode::kClosedLoop, true, false, 4, 0xcf4d9fb58d426025ull,
                0x00db0267fc877a87ull},
        PinCase{PinMode::kClosedLoop, true, true, 1, 0xdee6588625a6013bull,
                0xf62bf6c1cfdc1889ull},
        PinCase{PinMode::kClosedLoop, true, true, 4, 0xca4d324e9ca1ae7eull,
                0x459ce860e085540eull},
        PinCase{PinMode::kOpenLoop, false, false, 1, 0x199c990a0d10f682ull,
                0xe54e2282e5255fe5ull},
        PinCase{PinMode::kOpenLoop, false, false, 4, 0xe28a825f036508afull,
                0x38fffb26fb4092c3ull},
        PinCase{PinMode::kOpenLoop, false, true, 1, 0x1470d89205189df8ull,
                0x06185851b20f0120ull},
        PinCase{PinMode::kOpenLoop, false, true, 4, 0x9c0f93f9e633a112ull,
                0x745e9a5b32087752ull},
        PinCase{PinMode::kOpenLoop, true, false, 1, 0xd9ea6e33683d859dull,
                0xd2e50012b420ec92ull},
        PinCase{PinMode::kOpenLoop, true, false, 4, 0xf62f08714ca84067ull,
                0x358d9ceddd861215ull},
        PinCase{PinMode::kOpenLoop, true, true, 1, 0x2f430f136278a7d9ull,
                0xb404c80850b0a319ull},
        PinCase{PinMode::kOpenLoop, true, true, 4, 0x0e1eaaab5e1f4b5bull,
                0xfae9940ac8327c48ull},
        PinCase{PinMode::kService, false, false, 1, 0xb82a76f662c4459bull,
                0x90958ebeee54182cull},
        PinCase{PinMode::kService, false, false, 4, 0x797f35c969c73d2eull,
                0x493d8db0bcb9495aull},
        PinCase{PinMode::kService, false, true, 1, 0xf79e26cf1e159b9dull,
                0x1fc8ccf6baa101a5ull},
        PinCase{PinMode::kService, false, true, 4, 0xe19650736bedde6dull,
                0xe3d3b3366f09a77dull},
        PinCase{PinMode::kService, true, false, 1, 0xc7a43d4da1010c81ull,
                0x97eb53140a07259cull},
        PinCase{PinMode::kService, true, false, 4, 0xdb4ffb2a9fb232d5ull,
                0x3f43188e50d353feull},
        PinCase{PinMode::kService, true, true, 1, 0xc463b750b68c9eebull,
                0xe717102dfd4d3bb8ull},
        PinCase{PinMode::kService, true, true, 4, 0x510803bfe923e01bull,
                0x6340ca7e5548f4beull}),
    PinCaseName);

INSTANTIATE_TEST_SUITE_P(
    SpikesAndStalls, GoldenEventStreamTest,
    ::testing::Values(
        // mode, batch, faults, workers, events hash, trace-file hash, spikes
        PinCase{PinMode::kClosedLoop, false, true, 1, 0x0e505b2ea009cf31ull,
                0x2ecdb2a2421bc59bull, true},
        PinCase{PinMode::kClosedLoop, false, true, 4, 0xd51db21cf7cfceadull,
                0x4c121c9f4ee449f8ull, true},
        PinCase{PinMode::kClosedLoop, true, true, 1, 0x9317ea64f321e004ull,
                0xd998db8a0d8d29feull, true},
        PinCase{PinMode::kClosedLoop, true, true, 4, 0xd95d3f990bc985e0ull,
                0x26c8f36f820563f6ull, true},
        PinCase{PinMode::kService, false, true, 1, 0x3437c0b9b9f00b3eull,
                0x2c07e5a3aee91b11ull, true},
        PinCase{PinMode::kService, false, true, 4, 0xd183ebc860446617ull,
                0xf239301962935760ull, true},
        PinCase{PinMode::kService, true, true, 1, 0xadbd2eff6d73aaeeull,
                0xe3ed99a9a5a05817ull, true},
        PinCase{PinMode::kService, true, true, 4, 0x915209a903d92288ull,
                0xb271548d37bafc91ull, true}),
    PinCaseName);

TEST(TraceDeterminismTest, MergedTraceIsProvenanceOrdered) {
  const RunResult run = RunOnce(4);
  const TraceStream& trace = run.observability.trace;
  ASSERT_FALSE(trace.empty());
  for (size_t i = 1; i < trace.size(); ++i) {
    const TraceSpan& prev = trace[i - 1];
    const TraceSpan& cur = trace[i];
    const bool ordered =
        prev.start_nanos < cur.start_nanos ||
        (prev.start_nanos == cur.start_nanos &&
         (prev.worker < cur.worker ||
          (prev.worker == cur.worker && prev.seq < cur.seq)));
    ASSERT_TRUE(ordered) << "trace out of (start, worker, seq) order at "
                         << i;
  }
}

}  // namespace
}  // namespace lsbench
