#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "data/dataset.h"
#include "workload/access_distribution.h"
#include "workload/arrival.h"
#include "workload/generator.h"
#include "workload/operation.h"
#include "workload/spec.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// Operation mixes
// ---------------------------------------------------------------------------

TEST(OperationMixTest, FactoriesAreNormalizable) {
  for (const OperationMix& mix :
       {OperationMix::ReadMostly(), OperationMix::ReadWrite(),
        OperationMix::ScanHeavy(), OperationMix::InsertHeavy(),
        OperationMix::Analytic()}) {
    EXPECT_NEAR(mix.Total(), 1.0, 1e-9);
  }
}

TEST(OperationMixTest, OpTypeNames) {
  EXPECT_EQ(OpTypeToString(OpType::kGet), "get");
  EXPECT_EQ(OpTypeToString(OpType::kRangeCount), "range_count");
  EXPECT_EQ(OpTypeToString(OpType::kDelete), "delete");
}

// ---------------------------------------------------------------------------
// Access distributions
// ---------------------------------------------------------------------------

TEST(AccessDistributionTest, UniformCoversRange) {
  UniformAccess access;
  Rng rng(1);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[access.NextRank(&rng, 10)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 500);
}

TEST(AccessDistributionTest, ZipfianIsSkewed) {
  ZipfianAccess access(0.99, /*scramble=*/false);
  Rng rng(3);
  const uint64_t population = 10000;
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[access.NextRank(&rng, population)];
  // Rank 0 is by far the hottest; the top 100 ranks dominate.
  int top100 = 0;
  for (uint64_t r = 0; r < 100; ++r) {
    const auto it = counts.find(r);
    if (it != counts.end()) top100 += it->second;
  }
  EXPECT_GT(static_cast<double>(top100) / n, 0.4);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(AccessDistributionTest, ZipfianScrambleSpreadsHotKeys) {
  ZipfianAccess access(0.99, /*scramble=*/true);
  Rng rng(5);
  const uint64_t population = 10000;
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[access.NextRank(&rng, population)];
  // Still skewed overall (few distinct ranks dominate)...
  std::vector<int> freq;
  for (const auto& [r, c] : counts) freq.push_back(c);
  std::sort(freq.begin(), freq.end(), std::greater<int>());
  int top = 0;
  for (size_t i = 0; i < 100 && i < freq.size(); ++i) top += freq[i];
  EXPECT_GT(static_cast<double>(top) / 100000, 0.3);
  // ...but the hottest rank is NOT rank 0 specifically (scrambled).
  uint64_t hottest = 0;
  int hottest_count = 0;
  for (const auto& [r, c] : counts) {
    if (c > hottest_count) {
      hottest_count = c;
      hottest = r;
    }
  }
  EXPECT_NE(hottest, 0u);
}

TEST(AccessDistributionTest, ZipfianHandlesGrowingPopulation) {
  ZipfianAccess access(0.9);
  Rng rng(7);
  for (uint64_t pop = 1; pop < 5000; pop += 13) {
    const uint64_t r = access.NextRank(&rng, pop);
    ASSERT_LT(r, pop);
  }
}

TEST(AccessDistributionTest, HotSpotConcentratesAccesses) {
  HotSpotAccess access(0.1, 0.9);
  Rng rng(11);
  const uint64_t population = 10000;
  int hot = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (access.NextRank(&rng, population) < 1000) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.9, 0.02);
}

TEST(AccessDistributionTest, LatestFavorsNewestRanks) {
  LatestAccess access(0.99);
  Rng rng(13);
  const uint64_t population = 10000;
  int newest_decile = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (access.NextRank(&rng, population) >= 9000) ++newest_decile;
  }
  EXPECT_GT(static_cast<double>(newest_decile) / n, 0.5);
}

TEST(AccessDistributionTest, SequentialSweeps) {
  SequentialAccess access;
  Rng rng(17);
  for (uint64_t i = 0; i < 25; ++i) {
    EXPECT_EQ(access.NextRank(&rng, 10), i % 10);
  }
}

TEST(AccessDistributionTest, FactoryProducesRequestedKinds) {
  EXPECT_EQ(MakeAccessDistribution(AccessPattern::kUniform)->name(),
            "uniform");
  EXPECT_NE(MakeAccessDistribution(AccessPattern::kZipfian, 0.8)
                ->name()
                .find("zipfian"),
            std::string::npos);
  EXPECT_NE(MakeAccessDistribution(AccessPattern::kHotSpot, 0.2)
                ->name()
                .find("hotspot"),
            std::string::npos);
  EXPECT_EQ(MakeAccessDistribution(AccessPattern::kLatest)->name(), "latest");
  EXPECT_EQ(MakeAccessDistribution(AccessPattern::kSequential)->name(),
            "sequential");
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

TEST(ArrivalTest, ClosedLoopIsZero) {
  ClosedLoopArrival arrival;
  Rng rng(19);
  EXPECT_EQ(arrival.NextInterarrivalSeconds(&rng, 0.0), 0.0);
}

TEST(ArrivalTest, PoissonMeanMatchesRate) {
  PoissonArrival arrival(500.0);
  Rng rng(23);
  double total = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    total += arrival.NextInterarrivalSeconds(&rng, 0.0);
  }
  EXPECT_NEAR(total / n, 1.0 / 500.0, 1e-4);
}

TEST(ArrivalTest, DiurnalRateOscillates) {
  DiurnalArrival arrival(1000.0, 0.8, 20.0);
  Rng rng(29);
  // Sample mean interarrival at peak (t=5, sin=1) vs trough (t=15, sin=-1).
  double peak = 0.0, trough = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    peak += arrival.NextInterarrivalSeconds(&rng, 5.0);
    trough += arrival.NextInterarrivalSeconds(&rng, 15.0);
  }
  EXPECT_NEAR(peak / n, 1.0 / 1800.0, 1e-4);
  EXPECT_NEAR(trough / n, 1.0 / 200.0, 5e-4);
}

TEST(ArrivalTest, BurstyProducesFasterArrivalsDuringBursts) {
  BurstyArrival::Options options;
  options.base_qps = 100.0;
  options.burst_multiplier = 20.0;
  options.mean_burst_seconds = 1.0;
  options.mean_gap_seconds = 1.0;
  BurstyArrival arrival(options);
  Rng rng(31);
  // Simulate a long virtual timeline and collect interarrivals.
  double now = 0.0;
  std::vector<double> inter;
  for (int i = 0; i < 200000 && now < 500.0; ++i) {
    const double d = arrival.NextInterarrivalSeconds(&rng, now);
    inter.push_back(d);
    now += d;
  }
  std::sort(inter.begin(), inter.end());
  // Bimodal: the fast mode (bursts) is ~20x faster than the slow mode.
  const double p10 = inter[inter.size() / 10];
  const double p90 = inter[inter.size() * 9 / 10];
  EXPECT_GT(p90 / p10, 5.0);
}

TEST(ArrivalTest, FactoryKinds) {
  EXPECT_EQ(MakeArrivalProcess(ArrivalPattern::kClosedLoop)->name(),
            "closed_loop");
  EXPECT_NE(MakeArrivalProcess(ArrivalPattern::kPoisson, 100)->name().find(
                "poisson"),
            std::string::npos);
  EXPECT_NE(MakeArrivalProcess(ArrivalPattern::kDiurnal, 100)->name().find(
                "diurnal"),
            std::string::npos);
  EXPECT_NE(MakeArrivalProcess(ArrivalPattern::kBursty, 100)->name().find(
                "bursty"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Transitions
// ---------------------------------------------------------------------------

TEST(TransitionTest, MixFractionShapes) {
  EXPECT_DOUBLE_EQ(TransitionMixFraction(TransitionKind::kAbrupt, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(TransitionMixFraction(TransitionKind::kLinear, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(TransitionMixFraction(TransitionKind::kCosine, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(TransitionMixFraction(TransitionKind::kCosine, 1.0), 1.0);
  EXPECT_NEAR(TransitionMixFraction(TransitionKind::kCosine, 0.5), 0.5, 1e-9);
  // Cosine eases in: slower than linear early on.
  EXPECT_LT(TransitionMixFraction(TransitionKind::kCosine, 0.1),
            TransitionMixFraction(TransitionKind::kLinear, 0.1));
}

TEST(TransitionTest, Names) {
  EXPECT_EQ(TransitionKindToString(TransitionKind::kAbrupt), "abrupt");
  EXPECT_EQ(TransitionKindToString(TransitionKind::kLinear), "linear");
  EXPECT_EQ(TransitionKindToString(TransitionKind::kCosine), "cosine");
}

// ---------------------------------------------------------------------------
// OperationGenerator
// ---------------------------------------------------------------------------

TEST(GeneratorTest, RespectsMixFrequencies) {
  const Dataset ds = GenerateDataset(UniformUnit(), {2000, uint64_t{1} << 40, 2});
  PhaseSpec spec;
  spec.mix.get = 0.6;
  spec.mix.insert = 0.3;
  spec.mix.scan = 0.1;
  OperationGenerator gen(&ds, spec, 99);
  std::map<OpType, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[gen.Next().type];
  EXPECT_NEAR(static_cast<double>(counts[OpType::kGet]) / n, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[OpType::kInsert]) / n, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[OpType::kScan]) / n, 0.1, 0.02);
}

TEST(GeneratorTest, DeterministicBySeed) {
  const Dataset ds = GenerateDataset(UniformUnit(), {1000, uint64_t{1} << 40, 2});
  PhaseSpec spec;
  spec.mix = OperationMix::ReadWrite();
  OperationGenerator a(&ds, spec, 7), b(&ds, spec, 7);
  for (int i = 0; i < 200; ++i) {
    const Operation oa = a.Next();
    const Operation ob = b.Next();
    EXPECT_EQ(oa.type, ob.type);
    EXPECT_EQ(oa.key, ob.key);
  }
}

TEST(GeneratorTest, GetsTargetExistingKeys) {
  const Dataset ds = GenerateDataset(UniformUnit(), {1000, uint64_t{1} << 40, 3});
  PhaseSpec spec;
  spec.mix.get = 1.0;
  OperationGenerator gen(&ds, spec, 13);
  for (int i = 0; i < 1000; ++i) {
    const Operation op = gen.Next();
    EXPECT_TRUE(
        std::binary_search(ds.keys.begin(), ds.keys.end(), op.key));
  }
}

TEST(GeneratorTest, InsertsCreateKeysReadableLater) {
  const Dataset ds = GenerateDataset(UniformUnit(), {1000, uint64_t{1} << 40, 4});
  PhaseSpec spec;
  spec.mix.get = 0.5;
  spec.mix.insert = 0.5;
  spec.access = AccessPattern::kLatest;  // Reads chase recent inserts.
  OperationGenerator gen(&ds, spec, 17);
  for (int i = 0; i < 5000; ++i) gen.Next();
  EXPECT_GT(gen.inserted_key_count(), 1000u);
}

TEST(GeneratorTest, RangeCountWidthTracksSelectivity) {
  const Dataset ds = GenerateDataset(UniformUnit(), {1000, uint64_t{1} << 40, 5});
  PhaseSpec spec;
  spec.mix.get = 0.0;
  spec.mix.range_count = 1.0;
  spec.range_selectivity = 0.01;
  OperationGenerator gen(&ds, spec, 19);
  for (int i = 0; i < 500; ++i) {
    const Operation op = gen.Next();
    ASSERT_GE(op.range_end, op.key);
    const double width_frac =
        static_cast<double>(op.range_end - op.key) /
        static_cast<double>(ds.domain_max);
    EXPECT_LE(width_frac, 0.015 + 1e-9);
    EXPECT_GE(width_frac, 0.005 - 1e-2);
  }
}

TEST(GeneratorTest, ScanLengthVariesAroundTypical) {
  const Dataset ds = GenerateDataset(UniformUnit(), {1000, uint64_t{1} << 40, 6});
  PhaseSpec spec;
  spec.mix.get = 0.0;
  spec.mix.scan = 1.0;
  spec.scan_length = 100;
  OperationGenerator gen(&ds, spec, 23);
  for (int i = 0; i < 500; ++i) {
    const Operation op = gen.Next();
    EXPECT_GE(op.scan_length, 50u);
    EXPECT_LE(op.scan_length, 150u);
  }
}

}  // namespace
}  // namespace lsbench
