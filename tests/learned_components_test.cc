#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/dataset.h"
#include "learned/access_path.h"
#include "learned/cardinality.h"
#include "learned/drift_detector.h"
#include "util/random.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

std::vector<Key> SortedUniformKeys(size_t n, uint64_t seed) {
  const Dataset ds =
      GenerateDataset(UniformUnit(), {n, uint64_t{1} << 40, seed});
  return ds.keys;
}

uint64_t TrueCardinality(const std::vector<Key>& keys, Key lo, Key hi) {
  const auto begin = std::lower_bound(keys.begin(), keys.end(), lo);
  const auto end = std::upper_bound(keys.begin(), keys.end(), hi);
  return static_cast<uint64_t>(end - begin);
}

TEST(EquiDepthTest, AccurateOnUniformData) {
  const auto keys = SortedUniformKeys(50000, 7);
  EquiDepthHistogram hist(keys, 64);
  Rng rng(11);
  double max_q = 1.0;
  for (int i = 0; i < 200; ++i) {
    const Key lo = rng.Next() % (uint64_t{1} << 40);
    const Key hi = lo + (uint64_t{1} << 33);
    const double est = hist.EstimateRange(lo, hi);
    const double truth = static_cast<double>(TrueCardinality(keys, lo, hi));
    max_q = std::max(max_q, QError(est, truth));
  }
  EXPECT_LT(max_q, 2.0);
}

TEST(EquiDepthTest, EdgeRanges) {
  const std::vector<Key> keys = {10, 20, 30, 40, 50};
  EquiDepthHistogram hist(keys, 4);
  EXPECT_DOUBLE_EQ(hist.EstimateRange(60, 100), 0.0);
  EXPECT_DOUBLE_EQ(hist.EstimateRange(100, 50), 0.0);  // hi < lo.
  EXPECT_NEAR(hist.EstimateRange(0, 100), 5.0, 0.01);
}

TEST(EquiDepthTest, EmptyKeys) {
  EquiDepthHistogram hist({}, 8);
  EXPECT_DOUBLE_EQ(hist.EstimateRange(0, 100), 0.0);
}

TEST(LearnedCardinalityTest, AccurateOnSmoothData) {
  const auto keys = SortedUniformKeys(50000, 13);
  LearnedCardinalityEstimator est(keys, {});
  Rng rng(17);
  double max_q = 1.0;
  for (int i = 0; i < 200; ++i) {
    const Key lo = rng.Next() % (uint64_t{1} << 40);
    const Key hi = lo + (uint64_t{1} << 34);
    const double e = est.EstimateRange(lo, hi);
    const double truth = static_cast<double>(TrueCardinality(keys, lo, hi));
    max_q = std::max(max_q, QError(e, truth));
  }
  EXPECT_LT(max_q, 2.0);
}

TEST(LearnedCardinalityTest, FeedbackImprovesSkewedRegionEstimates) {
  // Keys clustered in a narrow region that a coarse model underfits.
  const Dataset ds = GenerateDataset(ClusteredUnit(3, 0.001, 19),
                                     {30000, uint64_t{1} << 40, 21});
  LearnedCardinalityEstimator::Options options;
  options.num_knots = 8;  // Deliberately coarse.
  options.sample_size = 256;
  LearnedCardinalityEstimator est(ds.keys, options);

  // Pick a range with a large initial error.
  const Key lo = ds.keys[ds.keys.size() / 2];
  const Key hi = ds.keys[ds.keys.size() / 2 + 2000];
  const double truth =
      static_cast<double>(TrueCardinality(ds.keys, lo, hi));
  const double before = QError(est.EstimateRange(lo, hi), truth);
  for (int i = 0; i < 50; ++i) est.Feedback(lo, hi, truth);
  const double after = QError(est.EstimateRange(lo, hi), truth);
  EXPECT_LE(after, before);
  EXPECT_LT(after, 1.5);
  EXPECT_EQ(est.feedback_count(), 50u);
}

TEST(LearnedCardinalityTest, FeedbackKeepsModelMonotone) {
  const auto keys = SortedUniformKeys(10000, 23);
  LearnedCardinalityEstimator est(keys, {});
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    const Key lo = rng.Next() % (uint64_t{1} << 40);
    const Key hi = lo + rng.Next() % (uint64_t{1} << 36);
    est.Feedback(lo, hi, static_cast<double>(rng.NextBounded(10000)));
  }
  // Estimates of nested ranges must be monotone in the range width.
  const Key base = uint64_t{1} << 38;
  double prev = -1.0;
  for (int w = 1; w <= 16; ++w) {
    const double e =
        est.EstimateRange(base, base + static_cast<Key>(w) * (uint64_t{1} << 34));
    EXPECT_GE(e, prev - 1e-9);
    prev = e;
  }
}

TEST(QErrorTest, Definition) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(20, 10), 2.0);
  EXPECT_DOUBLE_EQ(QError(10, 20), 2.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);  // Clamped.
}

// ---------------------------------------------------------------------------
// Drift detector
// ---------------------------------------------------------------------------

TEST(DriftDetectorTest, NoDriftOnStableDistribution) {
  DriftDetector detector;
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) detector.Observe(rng.NextDouble());
  detector.Freeze();
  for (int i = 0; i < 2000; ++i) detector.Observe(rng.NextDouble());
  EXPECT_LT(detector.CurrentDistance(), 0.1);
  EXPECT_FALSE(detector.DriftDetected());
}

TEST(DriftDetectorTest, DetectsDistributionShift) {
  DriftDetector detector;
  Rng rng(37);
  for (int i = 0; i < 3000; ++i) detector.Observe(rng.NextDouble());
  detector.Freeze();
  for (int i = 0; i < 2000; ++i) {
    detector.Observe(0.9 + 0.05 * rng.NextDouble());  // Shifted regime.
  }
  EXPECT_GT(detector.CurrentDistance(), 0.5);
  EXPECT_TRUE(detector.DriftDetected());
}

TEST(DriftDetectorTest, WarmupWindowReportsZero) {
  DriftDetector detector;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) detector.Observe(rng.NextDouble());
  detector.Freeze();
  for (int i = 0; i < 10; ++i) detector.Observe(5.0);  // Below min_window.
  EXPECT_EQ(detector.CurrentDistance(), 0.0);
  EXPECT_FALSE(detector.DriftDetected());
}

TEST(DriftDetectorTest, RebaseAdoptsNewDistribution) {
  DriftDetector detector;
  Rng rng(43);
  for (int i = 0; i < 2000; ++i) detector.Observe(rng.NextDouble());
  detector.Freeze();
  for (int i = 0; i < 1024; ++i) {
    detector.Observe(0.9 + 0.05 * rng.NextDouble());
  }
  ASSERT_TRUE(detector.DriftDetected());
  detector.Rebase();
  // The shifted regime is now the reference: feeding more of it is calm.
  for (int i = 0; i < 1024; ++i) {
    detector.Observe(0.9 + 0.05 * rng.NextDouble());
  }
  EXPECT_FALSE(detector.DriftDetected());
}

// ---------------------------------------------------------------------------
// Access-path cost models
// ---------------------------------------------------------------------------

TEST(AccessPathTest, StaticModelPrefersProbeForSelectiveQueries) {
  StaticCostModel model;
  EXPECT_EQ(model.Choose(/*estimated_rows=*/10, /*table_rows=*/100000),
            AccessPath::kIndexProbe);
  EXPECT_EQ(model.Choose(/*estimated_rows=*/90000, /*table_rows=*/100000),
            AccessPath::kFullScan);
}

TEST(AccessPathTest, CrossoverNearCostRatio) {
  // probe ~ rows * 4, scan ~ n * 1: crossover near n/4.
  StaticCostModel model;
  const double n = 100000;
  EXPECT_EQ(model.Choose(n / 4 - 100, n), AccessPath::kIndexProbe);
  EXPECT_EQ(model.Choose(n / 4 + 100, n), AccessPath::kFullScan);
}

TEST(AccessPathTest, OnlineModelLearnsFromFeedback) {
  OnlineCostModel model;
  const double table = 100000;
  // Observe that probes are actually much cheaper than assumed (factor 1
  // instead of 4): repeated feedback should move the crossover.
  for (int i = 0; i < 200; ++i) {
    model.Feedback(AccessPath::kIndexProbe, 1000, table,
                   /*observed_cost=*/1000.0);
  }
  EXPECT_LT(model.probe_per_row(), 1.5);
  // Now a 40%-selectivity query should pick the probe (scan still costs n).
  EXPECT_EQ(model.Choose(0.4 * table, table), AccessPath::kIndexProbe);
}

TEST(AccessPathTest, OnlineModelScanFeedback) {
  OnlineCostModel model;
  for (int i = 0; i < 200; ++i) {
    model.Feedback(AccessPath::kFullScan, 0, 1000, /*observed_cost=*/5000.0);
  }
  EXPECT_NEAR(model.scan_per_row(), 5.0, 0.5);
  EXPECT_EQ(model.feedback_count(), 200u);
}

TEST(AccessPathTest, Names) {
  EXPECT_EQ(AccessPathToString(AccessPath::kIndexProbe), "index_probe");
  EXPECT_EQ(AccessPathToString(AccessPath::kFullScan), "full_scan");
  EXPECT_EQ(StaticCostModel().name(), "static_cost_model");
  EXPECT_EQ(OnlineCostModel().name(), "online_cost_model");
}

}  // namespace
}  // namespace lsbench
