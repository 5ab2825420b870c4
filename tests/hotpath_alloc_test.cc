// Runtime ground truth for lsbench-deepcheck's hot-alloc claim: counts
// every global operator new during two simulated runs that differ only in
// operation count, and asserts the marginal allocations per additional
// operation stay within the pinned budget (LSBENCH_PER_OP_HEAP_ALLOCS,
// injected by CMake from tools/lint/hotpath_budget.json — the same file the
// static checker cross-checks its baseline against).
//
// The workload is read-only so the SUT performs no inserts of its own: the
// measured loop's steady state (generate -> pace -> execute -> record) is
// exactly what the static rule audits, and with the unit/outcome/trace/key
// arenas reserved up front the marginal cost per op must be zero heap
// calls. The
// absolute slack term absorbs O(log n) container regrowth in post-run
// metrics, which scales with run size but not per operation.
//
// The same counter also sums the bytes requested, which pins that training
// a learned index reads its key set where it lives instead of copying it,
// and, with a high-water mark of the bytes live at once, that building a
// dataset holds memory for the keys it yields rather than for the num_keys
// it was asked for.

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/event_sink.h"
#include "core/run_spec.h"
#include "data/dataset.h"
#include "learned/pgm.h"
#include "learned/rmi.h"
#include "sut/fault_plan.h"
#include "sut/systems.h"
#include "workload/trace.h"

namespace {

std::atomic<uint64_t> g_heap_allocs{0};
std::atomic<uint64_t> g_heap_bytes{0};
/// Heap bytes allocated and not yet freed, and their high-water mark.
std::atomic<uint64_t> g_live_bytes{0};
std::atomic<uint64_t> g_peak_live_bytes{0};

void* CountedAlloc(size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const uint64_t usable = malloc_usable_size(p);
  const uint64_t live =
      g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
  uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void CountedFree(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

namespace lsbench {
namespace {

RunSpec MakeReadOnlySpec(uint64_t num_operations) {
  RunSpec spec;
  spec.name = "hotpath_alloc_" + std::to_string(num_operations);
  spec.seed = 7;
  DatasetOptions options;
  options.num_keys = 4000;
  options.seed = 7;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));

  PhaseSpec phase;
  phase.name = "read_only";
  phase.dataset_index = 0;
  phase.mix = OperationMix{};  // get = 1.0, everything else 0.
  phase.num_operations = num_operations;
  spec.phases.push_back(phase);
  spec.interval_nanos = 100000000;  // 100 ms.
  return spec;
}

/// Batch analogue of MakeReadOnlySpec: the same element count driven as
/// kBatchGet request units of `batch_size` keys through the SUT's batch
/// entry (one event per unit and one outcome per element).
RunSpec MakeBatchReadOnlySpec(uint64_t num_elements, uint32_t batch_size) {
  RunSpec spec = MakeReadOnlySpec(num_elements);
  spec.name = "hotpath_alloc_batch_" + std::to_string(num_elements);
  PhaseSpec& phase = spec.phases[0];
  phase.mix.get = 0.0;
  phase.mix.batch_get = 1.0;
  phase.batch_size = batch_size;
  phase.num_operations = num_elements / batch_size;
  return spec;
}

/// Mixed analogue of MakeReadOnlySpec: 90% scalar gets and 10% kBatchGet
/// units of 16 keys, so the event arena is reserved at the expected 2.5
/// elements per op (plus a binomial margin), not at 16.
RunSpec MakeMixedReadOnlySpec(uint64_t num_operations) {
  RunSpec spec = MakeReadOnlySpec(num_operations);
  spec.name = "hotpath_alloc_mixed_" + std::to_string(num_operations);
  PhaseSpec& phase = spec.phases[0];
  phase.mix.get = 0.9;
  phase.mix.batch_get = 0.1;
  phase.batch_size = 16;
  return spec;
}

/// Trace analogue of MakeReadOnlySpec: the same phase, recorded up front
/// (outside the counted window) and replayed as a trace phase, so the
/// stream copies entries out of the trace instead of drawing them.
RunSpec MakeTraceReadOnlySpec(uint64_t num_operations) {
  RunSpec spec = MakeReadOnlySpec(num_operations);
  spec.name = "hotpath_alloc_trace_" + std::to_string(num_operations);
  PhaseSpec& phase = spec.phases[0];
  phase.trace = std::make_shared<const OperationTrace>(
      RecordTrace(spec.datasets[0], phase, num_operations, spec.seed).value());
  return spec;
}

/// Service-mode analogue of either spec above: Poisson arrivals at twice the
/// simulated capacity (100 us per element) into a bounded admission queue,
/// so the steady state includes queue sheds as well as executed units.
RunSpec WithServiceOverload(RunSpec spec, uint32_t unit_elements) {
  spec.name += "_service";
  PhaseSpec& phase = spec.phases[0];
  phase.arrival = ArrivalPattern::kPoisson;
  phase.arrival_rate_qps = 2.0 * 1e9 / (100000.0 * unit_elements);
  spec.service.enabled = true;
  spec.service.queue_capacity = 16;
  return spec;
}

/// Faulted analogue of either spec above: a wildcard window that fails a
/// fifth of the attempts with a transient code and delays a tenth of them,
/// with retries on, so the steady state includes injected failures, latency
/// spikes and backoff.
RunSpec WithFaults(RunSpec spec) {
  spec.name += "_faults";
  FaultWindow window;
  window.execute_fail_rate = 0.2;
  window.execute_fail_code = StatusCode::kUnavailable;
  window.latency_spike_rate = 0.1;
  window.latency_spike_nanos = 50000;  // 50 us.
  spec.faults.windows.push_back(window);
  spec.resilience.max_retries = 2;
  spec.resilience.backoff_initial_nanos = 10000;  // 10 us.
  return spec;
}

uint64_t HeapAllocsForSpec(const RunSpec& spec) {
  VirtualClock clock;
  DriverOptions options;
  options.virtual_clock = &clock;
  options.virtual_service_nanos = 100000;  // 100 us per op.
  BenchmarkDriver driver(&clock, options);
  BTreeSystem sut;

  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const Result<RunResult> result = driver.Run(spec, &sut);
  const uint64_t used = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  const EventStream& events = result.value().events;
  // Every drawn request unit records one event per element.
  uint64_t batch_events = 0;
  for (const OpEvent& e : events) batch_events += e.batch > 1 ? 1 : 0;
  const uint32_t batch = spec.phases[0].batch_size;
  EXPECT_EQ(batch_events % batch, 0u);
  EXPECT_EQ(events.size() - batch_events + batch_events / batch,
            spec.phases[0].num_operations);
  // Service-mode inputs must actually reach the shed path.
  const bool queue_shed =
      std::any_of(events.begin(), events.end(),
                  [](const OpEvent& e) { return e.queue_shed; });
  EXPECT_EQ(queue_shed, spec.service.enabled);
  // Faulted inputs must actually inject failures and spikes, and retry.
  const bool faulted = !spec.faults.Empty();
  const FaultStats& faults = result.value().fault_stats;
  EXPECT_EQ(faults.injected_failures > 0, faulted);
  EXPECT_EQ(faults.injected_spikes > 0, faulted);
  const bool retried =
      std::any_of(events.begin(), events.end(),
                  [](const OpEvent& e) { return e.retries > 0; });
  EXPECT_EQ(retried, faulted);
  return used;
}

/// Doubled-run-minus-base: the heap calls `elements` additional elements
/// cost, between two equally-warm runs of `make_spec`.
template <typename MakeSpec>
uint64_t MarginalAllocs(const MakeSpec& make_spec, uint64_t elements) {
  // The first run warms whatever process-lifetime lazy state the driver
  // touches.
  (void)HeapAllocsForSpec(make_spec(elements));
  const uint64_t base = HeapAllocsForSpec(make_spec(elements));
  const uint64_t doubled = HeapAllocsForSpec(make_spec(2 * elements));
  EXPECT_GE(doubled, base);
  return doubled - base;
}

TEST(HotpathAllocTest, MarginalAllocationsPerOpWithinBudget) {
  constexpr uint64_t kOps = 4000;
  const uint64_t marginal = MarginalAllocs(MakeReadOnlySpec, kOps);

  // Container regrowth in post-run merge/metrics is O(log n) allocation
  // calls regardless of op count; 96 absolute calls of slack covers it
  // with room while still failing loudly on any real per-op allocation
  // (which would cost kOps extra calls at minimum).
  constexpr uint64_t kSlack = 96;
  constexpr uint64_t kBudget = LSBENCH_PER_OP_HEAP_ALLOCS;
  EXPECT_LE(marginal, kBudget * kOps + kSlack)
      << "marginal heap allocations for " << kOps << " extra ops: "
      << marginal << " (per-op budget " << kBudget << ", slack " << kSlack
      << ") — the hot path regressed to allocating per operation; run "
      << "tools/lint/deepcheck.py to find the new call path";
}

TEST(HotpathAllocTest, TracePhaseAllocatesZeroPerOp) {
  // Replaying a recorded trace builds no generator: its steady state
  // (copy the next entry, pace, execute, record) is pinned at zero
  // marginal heap calls per op, like the generated phase it replays.
  constexpr uint64_t kOps = 4000;
  constexpr uint64_t kSlack = 96;
  const uint64_t marginal = MarginalAllocs(MakeTraceReadOnlySpec, kOps);
  EXPECT_LE(marginal, kSlack)
      << "marginal heap allocations for " << kOps
      << " extra trace-phase ops: " << marginal << " (slack " << kSlack
      << ")";
}

TEST(HotpathAllocTest, BatchSteadyStateAllocatesZeroPerElement) {
  // The batch loop's steady state (draw ranks into the pre-sized scratch,
  // fill the key ring, one ExecuteBatch, bulk-record into the event arena)
  // must be exactly as allocation-free as the scalar loop: zero marginal
  // heap calls per additional *element*, pinned with the same
  // doubled-run-minus-base technique as the scalar test.
  constexpr uint64_t kElements = 4096;
  constexpr uint32_t kBatchSize = 64;
  const uint64_t marginal = MarginalAllocs(
      [](uint64_t n) { return MakeBatchReadOnlySpec(n, kBatchSize); },
      kElements);

  constexpr uint64_t kSlack = 96;
  EXPECT_LE(marginal, kSlack)
      << "marginal heap allocations for " << kElements
      << " extra batch elements: " << marginal << " (slack " << kSlack
      << ") — the batch hot path regressed to allocating in steady state; "
      << "run tools/lint/deepcheck.py to find the new call path";
}

TEST(HotpathAllocTest, MixedBatchSteadyStateAllocatesZeroPerElement) {
  // A phase that mixes scalar ops with a few large batches reserves its
  // event arena at the expected element count plus a six-sigma margin.
  // That margin must hold: zero marginal heap calls per element.
  constexpr uint64_t kOps = 4000;
  constexpr uint64_t kSlack = 96;
  const uint64_t marginal = MarginalAllocs(MakeMixedReadOnlySpec, kOps);
  EXPECT_LE(marginal, kSlack)
      << "marginal heap allocations for " << kOps
      << " extra mixed scalar/batch ops: " << marginal << " (slack "
      << kSlack << ") — the expected-size event arena overflowed";
}

TEST(HotpathAllocTest, ServiceModeSteadyStateAllocatesZeroPerElement) {
  // [service] mode adds the admission step (fire due arrivals, shed on
  // overload, pop) in front of the same execute/record steps. Its steady
  // state, sheds included, is pinned at zero marginal heap calls per
  // element for scalar and batch units alike.
  constexpr uint64_t kElements = 4096;
  constexpr uint32_t kBatchSize = 64;
  constexpr uint64_t kSlack = 96;
  const uint64_t scalar = MarginalAllocs(
      [](uint64_t n) { return WithServiceOverload(MakeReadOnlySpec(n), 1); },
      kElements);
  EXPECT_LE(scalar, kSlack)
      << "marginal heap allocations for " << kElements
      << " extra service-mode ops: " << scalar << " (slack " << kSlack << ")";
  const uint64_t batch = MarginalAllocs(
      [](uint64_t n) {
        return WithServiceOverload(MakeBatchReadOnlySpec(n, kBatchSize),
                                   kBatchSize);
      },
      kElements);
  EXPECT_LE(batch, kSlack)
      << "marginal heap allocations for " << kElements
      << " extra service-mode batch elements: " << batch << " (slack "
      << kSlack << ")";
}

TEST(HotpathAllocTest, FaultedSteadyStateAllocatesZeroPerElement) {
  // Each worker's executor draws its faults inside the same loop a clean
  // run takes: injected failures, latency spikes and retries cost zero
  // marginal heap calls per element, for scalar and batch units alike.
  constexpr uint64_t kElements = 4096;
  constexpr uint32_t kBatchSize = 64;
  constexpr uint64_t kSlack = 96;
  const uint64_t scalar = MarginalAllocs(
      [](uint64_t n) { return WithFaults(MakeReadOnlySpec(n)); }, kElements);
  EXPECT_LE(scalar, kSlack)
      << "marginal heap allocations for " << kElements
      << " extra faulted ops: " << scalar << " (slack " << kSlack << ")";
  const uint64_t batch = MarginalAllocs(
      [](uint64_t n) {
        return WithFaults(MakeBatchReadOnlySpec(n, kBatchSize));
      },
      kElements);
  EXPECT_LE(batch, kSlack)
      << "marginal heap allocations for " << kElements
      << " extra faulted batch elements: " << batch << " (slack " << kSlack
      << ")";
}

/// Total bytes requested from the heap while `fn` runs; frees do not
/// subtract, so a transient copy counts in full.
template <typename Fn>
uint64_t HeapBytesDuring(Fn&& fn) {
  const uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  fn();
  return g_heap_bytes.load(std::memory_order_relaxed) - before;
}

/// The most heap bytes live at once while `fn` runs, above those live
/// before it.
template <typename Fn>
uint64_t PeakLiveBytesDuring(Fn&& fn) {
  const uint64_t before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(before, std::memory_order_relaxed);
  fn();
  return g_peak_live_bytes.load(std::memory_order_relaxed) - before;
}

static_assert(sizeof(ElementOutcome) == 1,
              "a batch element's outcome is one byte");

TEST(HotpathAllocTest, BatchRecordingArenasReserveUnitsNotElements) {
  // A closed-loop phase of 256-element batch units records one event per
  // unit and a one-byte outcome per element: its arenas reserve no
  // per-element event slot.
  constexpr uint64_t kElements = uint64_t{1} << 16;
  constexpr uint32_t kBatchSize = 256;
  const RunSpec spec = MakeBatchReadOnlySpec(kElements, kBatchSize);
  const uint64_t units = spec.phases[0].num_operations;
  EventSink sink(0);
  const uint64_t reserved =
      HeapBytesDuring([&] { ReserveWorkerSink(spec, 0, &sink); });
  const uint64_t bound = units * sizeof(OpEvent) + kElements;
  EXPECT_LE(reserved, bound)
      << "a worker's recording arenas for " << units << " units of "
      << kBatchSize << " elements reserved " << reserved << " bytes";
  EXPECT_LT(bound, kElements * sizeof(OpEvent) / 32);
}

TEST(HotpathAllocTest, ExpansionIntoRoomyMergedUnitsAllocatesNothing) {
  // Units merged with room for every element expand inside that buffer:
  // batch units (one failed, one queue-shed) and escaped rows take no
  // heap byte, and the elements come back in the merged buffer.
  constexpr uint32_t kBatch = 64;
  std::vector<OpResult> results(kBatch);
  for (uint32_t i = 0; i < kBatch; ++i) {
    results[i] = {i % 3 != 0, i % 5 == 0 ? uint64_t{1} << 40 : 1,
                  Status::OK()};
  }
  std::vector<EventStream> unit_shards;
  std::vector<UnitShard> shards;
  uint64_t elements = 0;
  for (uint32_t w = 0; w < 2; ++w) {
    EventSink sink(w);
    sink.Reserve(8, 4 * kBatch);
    OpEvent proto;
    for (int64_t u = 0; u < 8; ++u) {
      proto.timestamp_nanos = 10 * u + w;
      proto.type = u % 2 == 0 ? OpType::kGet : OpType::kBatchGet;
      proto.failed = u == 3;
      proto.queue_shed = u == 5;
      sink.RecordBatch(proto, results.data(), u % 2 == 0 ? 1 : kBatch);
    }
    elements += sink.recorded();
    shards.push_back(sink.TakeUnits());
    unit_shards.push_back(std::move(shards.back().units));
  }
  ASSERT_FALSE(shards[0].wide_rows.empty());
  EventStream merged = MergeEventShards(std::move(unit_shards), elements);
  const OpEvent* buffer = merged.data();
  EventStream events;
  const uint64_t bytes = HeapBytesDuring([&] {
    events = ExpandUnits(std::move(merged), std::move(shards), elements);
  });
  EXPECT_EQ(bytes, 0u) << "expanding " << elements << " elements in place";
  EXPECT_EQ(events.size(), elements);
  EXPECT_EQ(events.data(), buffer);
}

constexpr size_t kTrainKeys = 200000;
/// One copy of the trained keys: the smallest copy of the key set.
constexpr uint64_t kKeySetBytes = kTrainKeys * sizeof(Key);
/// Slack over a learned index's arrays at load, the size of its models:
/// RMI's 256 leaf models and their bounds take about 7 KiB, PGM's segments
/// about 2. A load fits no model, so the slack only absorbs rounding.
constexpr uint64_t kModelSlackBytes = 16 * 1024;

std::vector<KeyValue> TrainPairs() {
  DatasetOptions options;
  options.num_keys = kTrainKeys;
  options.seed = 7;
  const Dataset ds = GenerateDataset(UniformUnit(), options);
  std::vector<KeyValue> pairs;
  pairs.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) pairs.emplace_back(ds.keys[i], i);
  return pairs;
}

TEST(TrainAllocTest, TrainCopiesNoKeySet) {
  // Train refits the index, samples the estimator and feeds the drift
  // reference from the keys the index already holds; none of that needs
  // a copy of the key set.
  const std::vector<KeyValue> pairs = TrainPairs();
  ASSERT_EQ(pairs.size(), kTrainKeys);
  for (const auto kind : {LearnedSystemOptions::IndexKind::kRmi,
                          LearnedSystemOptions::IndexKind::kPgm}) {
    LearnedSystemOptions options;
    options.index_kind = kind;
    LearnedKvSystem sut(options);
    ASSERT_TRUE(sut.Load(pairs).ok());
    const uint64_t bytes = HeapBytesDuring([&] { (void)sut.Train(); });
    EXPECT_LT(bytes, kKeySetBytes)
        << sut.name() << ": Train() allocated " << bytes
        << " bytes for " << kTrainKeys << " keys";
  }
}

TEST(TrainAllocTest, RetrainWithEmptyDeltaCopiesNoKeySet) {
  const std::vector<KeyValue> pairs = TrainPairs();
  RmiIndex rmi;
  rmi.BulkLoad(pairs);
  const uint64_t rmi_bytes = HeapBytesDuring([&] { (void)rmi.Retrain(); });
  EXPECT_LT(rmi_bytes, kKeySetBytes)
      << "RmiIndex::Retrain() with an empty delta allocated " << rmi_bytes
      << " bytes";
  PgmIndex pgm;
  pgm.BulkLoad(pairs);
  const uint64_t pgm_bytes = HeapBytesDuring([&] { (void)pgm.Retrain(); });
  EXPECT_LT(pgm_bytes, kKeySetBytes)
      << "PgmIndex::Retrain() with an empty delta allocated " << pgm_bytes
      << " bytes";
}

TEST(LoadAllocTest, LoadKeysAllocatesOnlyTheIndex) {
  // LoadKeys fills a learned index's key and value arrays straight from the
  // dataset, 16 B per key, and fits no model. Loading through a pair image
  // allocated that image too, 32 B per key in all.
  std::vector<Key> keys;
  for (const auto& [k, v] : TrainPairs()) {
    (void)v;
    keys.push_back(k);
  }
  const uint64_t index_bytes = kTrainKeys * (sizeof(Key) + sizeof(Value));
  for (const auto kind : {LearnedSystemOptions::IndexKind::kRmi,
                          LearnedSystemOptions::IndexKind::kPgm}) {
    LearnedSystemOptions options;
    options.index_kind = kind;
    LearnedKvSystem sut(options);
    Status status;
    uint64_t peak = 0;
    const uint64_t requested = HeapBytesDuring([&] {
      peak = PeakLiveBytesDuring([&] { status = sut.LoadKeys(keys); });
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_LE(requested, index_bytes + kModelSlackBytes)
        << sut.name() << ": LoadKeys of " << kTrainKeys << " keys requested "
        << requested << " heap bytes";
    EXPECT_LE(peak, index_bytes + kModelSlackBytes)
        << sut.name() << ": LoadKeys of " << kTrainKeys << " keys held "
        << peak << " heap bytes at its peak";
  }
}

TEST(HotpathAllocTest, UntrainedLearnedSutServesWithoutAllocating) {
  // Loaded and never trained, a learned SUT binary-searches all of its keys:
  // its scalar and batch gets allocate as little as the fitted model's
  // window search does, nothing.
  std::vector<Key> keys;
  for (const auto& [k, v] : TrainPairs()) {
    (void)v;
    keys.push_back(k);
  }
  constexpr uint32_t kBatch = 64;
  std::vector<OpResult> results(kBatch);
  for (const auto kind : {LearnedSystemOptions::IndexKind::kRmi,
                          LearnedSystemOptions::IndexKind::kPgm}) {
    LearnedSystemOptions options;
    options.index_kind = kind;
    LearnedKvSystem sut(options);
    ASSERT_TRUE(sut.LoadKeys(keys).ok());
    uint64_t found = 0;
    uint64_t expected = 0;
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (size_t i = 0; i < keys.size(); i += 7) {
      Operation get;
      get.type = OpType::kGet;
      get.key = keys[i];
      found += sut.Execute(get).ok ? 1 : 0;
      get.key = keys[i] + 1;  // Mostly a miss.
      found += sut.Execute(get).ok ? 1 : 0;
      expected +=
          std::binary_search(keys.begin(), keys.end(), get.key) ? 2 : 1;
    }
    for (size_t i = 0; i + kBatch <= keys.size(); i += 7 * kBatch) {
      Operation batch;
      batch.type = OpType::kBatchGet;
      batch.batch_keys = keys.data() + i;
      batch.batch_size = kBatch;
      sut.ExecuteBatch(batch, results.data());
      for (const OpResult& r : results) found += r.ok ? 1 : 0;
      expected += kBatch;
    }
    const uint64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 0u) << sut.name() << " untrained";
    EXPECT_EQ(sut.model_builds(), 0u) << sut.name();
    EXPECT_EQ(found, expected) << sut.name();
  }
}

TEST(BuildAllocTest, EmailsPastItsKeySpaceFailsWithoutReserving) {
  // An emails source yields about 4k distinct keys however many it asks
  // for. Asking for 2^24 (128 MiB of keys, under the 256 MiB bound) must
  // fail having held memory for the keys it found, not for the ones it
  // asked for, and without building a fresh address string per attempt:
  // the generator reuses one buffer, so the bytes requested stay small
  // too.
  ParsedSpec spec;
  DatasetSourceSpec source;
  source.kind = "emails";
  source.num_keys = uint64_t{1} << 24;
  spec.datasets.push_back(source);
  Status status;
  uint64_t peak = 0;
  const uint64_t requested = HeapBytesDuring([&] {
    peak = PeakLiveBytesDuring(
        [&] { status = BuildDatasets(spec).status(); });
  });
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("too few distinct keys"), std::string::npos)
      << status.ToString();
  EXPECT_LT(peak, uint64_t{1} << 20)
      << "BuildDatasets of a 2^24-key emails source held " << peak
      << " heap bytes at its peak";
  EXPECT_LT(requested, uint64_t{1} << 20)
      << "BuildDatasets of a 2^24-key emails source requested " << requested
      << " heap bytes";
}

}  // namespace
}  // namespace lsbench
