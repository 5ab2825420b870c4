// Runtime ground truth for lsbench-deepcheck's hot-alloc claim: counts
// every global operator new during two simulated runs that differ only in
// operation count, and asserts the marginal allocations per additional
// operation stay within the pinned budget (LSBENCH_PER_OP_HEAP_ALLOCS,
// injected by CMake from tools/lint/hotpath_budget.json — the same file the
// static checker cross-checks its baseline against).
//
// The workload is read-only so the SUT performs no inserts of its own: the
// measured loop's steady state (generate -> pace -> execute -> record) is
// exactly what the static rule audits, and with the event/trace/key arenas
// reserved up front the marginal cost per op must be zero heap calls. The
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
#include "core/run_spec.h"
#include "data/dataset.h"
#include "learned/pgm.h"
#include "learned/rmi.h"
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
/// kBatchGet request units of `batch_size` keys through the monomorphized
/// batch loop (one event per element, so the arenas see the same load).
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

constexpr size_t kTrainKeys = 200000;
/// One copy of the trained keys: the smallest copy of the key set.
constexpr uint64_t kKeySetBytes = kTrainKeys * sizeof(Key);

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

TEST(BuildAllocTest, EmailsPastItsKeySpaceFailsWithoutReserving) {
  // An emails source yields about 4k distinct keys however many it asks
  // for. Asking for 2^24 (128 MiB of keys, under the 256 MiB bound) must
  // fail having held memory for the keys it found, not for the ones it
  // asked for. Peak live bytes, not bytes requested: each attempt builds
  // a short-lived address string, freed before the next.
  ParsedSpec spec;
  DatasetSourceSpec source;
  source.kind = "emails";
  source.num_keys = uint64_t{1} << 24;
  spec.datasets.push_back(source);
  Status status;
  const uint64_t bytes =
      PeakLiveBytesDuring([&] { status = BuildDatasets(spec).status(); });
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("too few distinct keys"), std::string::npos)
      << status.ToString();
  EXPECT_LT(bytes, uint64_t{1} << 20)
      << "BuildDatasets of a 2^24-key emails source held " << bytes
      << " heap bytes at its peak";
}

}  // namespace
}  // namespace lsbench
