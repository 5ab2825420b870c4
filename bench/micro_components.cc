// Micro-benchmarks for the learned components beyond indexing: cardinality
// estimators (latency and accuracy), the similarity statistics powering the
// phi axis, and the drift detector — plus dataset generation, which is most
// of a large run's set-up.

#include <benchmark/benchmark.h>

#include <vector>

#include "data/dataset.h"
#include "learned/cardinality.h"
#include "learned/drift_detector.h"
#include "stats/similarity.h"
#include "util/random.h"

namespace lsbench {
namespace {

// First arg 0: uniform keys, 1: lognormal(0, 1.5) keys; second arg: keys
// per run. The 65,536-key row is cached_batch's size, sorted in one block
// on the calling thread. The per_key counter is the wall time per
// generated key: generation sorts on every hardware thread, so the calling
// thread's CPU time undercounts.
void BM_GenerateDataset(benchmark::State& state) {
  const UniformUnit uniform;
  const LognormalUnit lognormal(0.0, 1.5);
  const UnitDistribution& dist =
      state.range(0) == 0 ? static_cast<const UnitDistribution&>(uniform)
                          : lognormal;
  DatasetOptions options;
  options.num_keys = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    const Dataset ds = GenerateDataset(dist, options);
    benchmark::DoNotOptimize(ds.keys.data());
  }
  state.SetLabel(dist.name());
  state.counters["per_key"] = benchmark::Counter(
      static_cast<double>(options.num_keys),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_GenerateDataset)
    ->Args({0, 1000000})
    ->Args({1, 1000000})
    ->Args({0, 65536})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

const std::vector<Key>& EstimatorKeys() {
  static const auto& keys = *new std::vector<Key>(
      GenerateDataset(ClusteredUnit(20, 0.003, 3),
                      {200000, uint64_t{1} << 44, 5})
          .keys);
  return keys;
}

void BM_EquiDepthEstimate(benchmark::State& state) {
  const EquiDepthHistogram hist(EstimatorKeys(), 128);
  Rng rng(7);
  for (auto _ : state) {
    const Key lo = rng.Next() % (uint64_t{1} << 44);
    benchmark::DoNotOptimize(
        hist.EstimateRange(lo, lo + (uint64_t{1} << 36)));
  }
}
BENCHMARK(BM_EquiDepthEstimate);

void BM_LearnedEstimate(benchmark::State& state) {
  const LearnedCardinalityEstimator est(EstimatorKeys(), {});
  Rng rng(9);
  for (auto _ : state) {
    const Key lo = rng.Next() % (uint64_t{1} << 44);
    benchmark::DoNotOptimize(
        est.EstimateRange(lo, lo + (uint64_t{1} << 36)));
  }
}
BENCHMARK(BM_LearnedEstimate);

void BM_LearnedEstimatorFeedback(benchmark::State& state) {
  LearnedCardinalityEstimator est(EstimatorKeys(), {});
  Rng rng(11);
  for (auto _ : state) {
    const Key lo = rng.Next() % (uint64_t{1} << 44);
    est.Feedback(lo, lo + (uint64_t{1} << 36), 1000.0);
  }
  benchmark::DoNotOptimize(est.feedback_count());
}
BENCHMARK(BM_LearnedEstimatorFeedback);

void BM_KolmogorovSmirnov(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> a, b;
  for (int64_t i = 0; i < state.range(0); ++i) {
    a.push_back(rng.NextDouble());
    b.push_back(rng.NextGaussian());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(KolmogorovSmirnov(a, b).statistic);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KolmogorovSmirnov)->Arg(1024)->Arg(16384);

void BM_MmdSquared(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> a, b;
  for (int64_t i = 0; i < state.range(0); ++i) {
    a.push_back(rng.NextDouble());
    b.push_back(rng.NextGaussian());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MmdSquared(a, b));
  }
}
BENCHMARK(BM_MmdSquared)->Arg(256)->Arg(1024);

void BM_DriftDetectorObserve(benchmark::State& state) {
  DriftDetector detector;
  Rng rng(19);
  for (int i = 0; i < 3000; ++i) detector.Observe(rng.NextDouble());
  detector.Freeze();
  for (auto _ : state) {
    detector.Observe(rng.NextDouble());
  }
  benchmark::DoNotOptimize(detector.window_size());
}
BENCHMARK(BM_DriftDetectorObserve);

void BM_DriftDetectorCheck(benchmark::State& state) {
  DriftDetector detector;
  Rng rng(23);
  for (int i = 0; i < 3000; ++i) detector.Observe(rng.NextDouble());
  detector.Freeze();
  for (int i = 0; i < 1024; ++i) detector.Observe(rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.CurrentDistance());
  }
}
BENCHMARK(BM_DriftDetectorCheck);

}  // namespace
}  // namespace lsbench

BENCHMARK_MAIN();
