// Micro-benchmarks (google-benchmark) for every KvIndex implementation:
// point lookups, inserts, and scans on a lognormal key set. Supporting data
// for the figure benches — the per-operation costs whose aggregate the
// driver-level metrics report.

#include <benchmark/benchmark.h>

#include <memory>

#include "data/dataset.h"
#include "index/btree.h"
#include "index/lsm.h"
#include "learned/adaptive.h"
#include "learned/pgm.h"
#include "learned/rmi.h"
#include "util/random.h"

namespace lsbench {
namespace {

constexpr size_t kNumKeys = 200000;

const Dataset& BenchDataset() {
  static const Dataset& ds = *new Dataset(GenerateDataset(
      LognormalUnit(0.0, 1.2), {kNumKeys, uint64_t{1} << 44, 97}));
  return ds;
}

std::vector<KeyValue> BenchPairs() {
  const Dataset& ds = BenchDataset();
  std::vector<KeyValue> pairs;
  pairs.reserve(ds.keys.size());
  for (size_t i = 0; i < ds.keys.size(); ++i) {
    pairs.emplace_back(ds.keys[i], static_cast<Value>(i));
  }
  return pairs;
}

template <typename IndexT>
std::unique_ptr<KvIndex> MakeLoaded() {
  auto index = std::make_unique<IndexT>();
  index->BulkLoad(BenchPairs());
  return index;
}

template <typename IndexT>
void BM_Get(benchmark::State& state) {
  const auto index = MakeLoaded<IndexT>();
  const Dataset& ds = BenchDataset();
  Rng rng(1);
  for (auto _ : state) {
    const Key key = ds.keys[rng.NextBounded(ds.keys.size())];
    benchmark::DoNotOptimize(index->Get(key));
  }
}

template <typename IndexT>
void BM_GetAbsent(benchmark::State& state) {
  const auto index = MakeLoaded<IndexT>();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Get(rng.Next()));
  }
}

template <typename IndexT>
void BM_Insert(benchmark::State& state) {
  auto index = MakeLoaded<IndexT>();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Insert(rng.Next(), 1));
  }
}

template <typename IndexT>
void BM_Scan100(benchmark::State& state) {
  const auto index = MakeLoaded<IndexT>();
  const Dataset& ds = BenchDataset();
  Rng rng(4);
  std::vector<KeyValue> out;
  out.reserve(128);
  for (auto _ : state) {
    out.clear();
    const Key key = ds.keys[rng.NextBounded(ds.keys.size())];
    benchmark::DoNotOptimize(index->Scan(key, 100, &out));
  }
}

#define LSBENCH_INDEX_BENCHES(IndexT)                       \
  BENCHMARK_TEMPLATE(BM_Get, IndexT);                       \
  BENCHMARK_TEMPLATE(BM_GetAbsent, IndexT);                 \
  BENCHMARK_TEMPLATE(BM_Insert, IndexT);                    \
  BENCHMARK_TEMPLATE(BM_Scan100, IndexT)

LSBENCH_INDEX_BENCHES(BTree);
LSBENCH_INDEX_BENCHES(RmiIndex);
LSBENCH_INDEX_BENCHES(PgmIndex);
LSBENCH_INDEX_BENCHES(AdaptiveLearnedIndex);
LSBENCH_INDEX_BENCHES(LsmTree);

// Learned-run LSM (Bourbon-style) vs the plain LSM on point reads.
void BM_LsmLearnedGet(benchmark::State& state) {
  LsmOptions options;
  options.learned_runs = true;
  LsmTree lsm(options);
  lsm.BulkLoad(BenchPairs());
  const Dataset& ds = BenchDataset();
  Rng rng(5);
  for (auto _ : state) {
    const Key key = ds.keys[rng.NextBounded(ds.keys.size())];
    benchmark::DoNotOptimize(lsm.Get(key));
  }
}
BENCHMARK(BM_LsmLearnedGet);

void BM_RmiTrain(benchmark::State& state) {
  const auto pairs = BenchPairs();
  RmiOptions options;
  options.num_leaf_models = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RmiIndex rmi(options);
    rmi.BulkLoad(pairs);
    benchmark::DoNotOptimize(rmi.model().MaxLeafError());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_RmiTrain)->Arg(64)->Arg(1024);

/// Retrain of a loaded RMI whose delta holds `delta_pct` percent of the key
/// count in fresh inserts: the merge plus the refit, as an online retrain
/// pays it. Row 0 is the retrain that offline training runs after a load.
void BM_RmiRetrain(benchmark::State& state) {
  const auto pairs = BenchPairs();
  const size_t delta_keys =
      pairs.size() * static_cast<size_t>(state.range(0)) / 100;
  RmiIndex rmi;
  for (auto _ : state) {
    state.PauseTiming();
    rmi.BulkLoad(pairs);
    Rng rng(11);
    for (size_t i = 0; i < delta_keys; ++i) {
      rmi.Insert(rng.NextBounded(BenchDataset().domain_max), i);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(rmi.Retrain());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_RmiRetrain)->ArgName("delta_pct")->Arg(0)->Arg(1)->UseRealTime();

void BM_PgmBuild(benchmark::State& state) {
  const auto pairs = BenchPairs();
  for (auto _ : state) {
    PgmIndex pgm(static_cast<uint32_t>(state.range(0)));
    pgm.BulkLoad(pairs);
    benchmark::DoNotOptimize(pgm.model().segment_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_PgmBuild)->Arg(16)->Arg(256);

}  // namespace
}  // namespace lsbench

BENCHMARK_MAIN();
