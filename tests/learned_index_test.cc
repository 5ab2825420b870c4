#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "learned/adaptive.h"
#include "learned/delta_buffer.h"
#include "stats/model.h"
#include "learned/pgm.h"
#include "learned/rmi.h"
#include "util/random.h"

namespace lsbench {
namespace {

std::vector<KeyValue> PairsFromDataset(const Dataset& ds) {
  std::vector<KeyValue> pairs;
  pairs.reserve(ds.keys.size());
  for (size_t i = 0; i < ds.keys.size(); ++i) {
    pairs.emplace_back(ds.keys[i], static_cast<Value>(i));
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// LinearModel / CdfModel
// ---------------------------------------------------------------------------

TEST(LinearModelTest, FitsExactLinearData) {
  std::vector<Key> keys;
  for (Key i = 0; i < 100; ++i) keys.push_back(1000 + i * 10);
  const LinearModel m = FitLinear(keys.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_NEAR(m.Predict(static_cast<double>(keys[i])),
                static_cast<double>(i), 1e-6);
  }
}

TEST(LinearModelTest, DegenerateInputs) {
  const LinearModel empty = FitLinear(nullptr, 0);
  EXPECT_EQ(empty.Predict(5.0), 0.0);
  const Key one = 42;
  const LinearModel single = FitLinear(&one, 1);
  EXPECT_EQ(single.Predict(42.0), 0.0);
}

TEST(LinearModelTest, PredictClampedStaysInBounds) {
  LinearModel m{1.0, -100.0};
  EXPECT_EQ(m.PredictClamped(0.0, 10), 0u);
  EXPECT_EQ(m.PredictClamped(1e9, 10), 9u);
  EXPECT_EQ(m.PredictClamped(105.0, 10), 5u);
  EXPECT_EQ(m.PredictClamped(5.0, 0), 0u);
}

TEST(LinearModelTest, LargeKeysStayWellConditioned) {
  std::vector<Key> keys;
  const Key base = Key{1} << 62;
  for (Key i = 0; i < 1000; ++i) keys.push_back(base + i * 1000);
  const LinearModel m = FitLinear(keys.data(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 97) {
    EXPECT_NEAR(m.Predict(static_cast<double>(keys[i])),
                static_cast<double>(i), 1.0);
  }
}

TEST(CdfModelTest, MonotoneAndBounded) {
  Rng rng(77);
  std::vector<Key> sample;
  for (int i = 0; i < 5000; ++i) sample.push_back(rng.Next() % 1000000);
  std::sort(sample.begin(), sample.end());
  const CdfModel cdf = CdfModel::FitFromSorted(sample, 64);
  double prev = -1.0;
  for (Key k = 0; k <= 1000000; k += 10000) {
    const double v = cdf.Evaluate(k);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(CdfModelTest, ApproximatesEmpiricalCdf) {
  std::vector<Key> sample;
  for (Key i = 0; i < 10000; ++i) sample.push_back(i * 100);
  const CdfModel cdf = CdfModel::FitFromSorted(sample, 128);
  EXPECT_NEAR(cdf.Evaluate(500000), 0.5, 0.02);
  EXPECT_NEAR(cdf.Evaluate(100000), 0.1, 0.02);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(999900), 1.0);
}

TEST(CdfModelTest, InverseRoundTrips) {
  std::vector<Key> sample;
  for (Key i = 0; i < 10000; ++i) sample.push_back(i * 100);
  const CdfModel cdf = CdfModel::FitFromSorted(sample, 128);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const Key k = cdf.EvaluateInverse(q);
    EXPECT_NEAR(cdf.Evaluate(k), q, 0.02);
  }
}

TEST(CdfModelTest, EmptySampleGivesDefault) {
  const CdfModel cdf = CdfModel::FitFromSorted({}, 8);
  EXPECT_DOUBLE_EQ(cdf.Evaluate(0), 0.0);
  EXPECT_GT(cdf.Evaluate(~Key{0}), 0.99);
}

// ---------------------------------------------------------------------------
// DeltaBuffer
// ---------------------------------------------------------------------------

TEST(DeltaBufferTest, LookupStates) {
  DeltaBuffer delta;
  Value v = 0;
  EXPECT_EQ(delta.Lookup(1, &v), DeltaBuffer::Presence::kAbsent);
  delta.Put(1, 10);
  EXPECT_EQ(delta.Lookup(1, &v), DeltaBuffer::Presence::kLive);
  EXPECT_EQ(v, 10u);
  delta.Delete(1);
  EXPECT_EQ(delta.Lookup(1, &v), DeltaBuffer::Presence::kTombstone);
}

/// Runs MergeInto over the static run `static_pairs` and returns the
/// merged run as pairs.
std::vector<KeyValue> MergeIntoPairs(DeltaBuffer* delta,
                                     const std::vector<KeyValue>& static_pairs) {
  std::vector<Key> keys;
  std::vector<Value> values;
  for (const auto& [k, v] : static_pairs) {
    keys.push_back(k);
    values.push_back(v);
  }
  delta->MergeInto(&keys, &values);
  EXPECT_EQ(keys.size(), values.size());
  std::vector<KeyValue> merged;
  for (size_t i = 0; i < keys.size(); ++i) merged.emplace_back(keys[i], values[i]);
  return merged;
}

TEST(DeltaBufferTest, MergeIntoAppliesShadowsAndTombstones) {
  DeltaBuffer delta;
  delta.Put(2, 20);      // Overwrites static.
  delta.Put(5, 50);      // New key.
  delta.Delete(3);       // Removes static.
  delta.Delete(99);      // Tombstone for non-existent key: no effect.
  const std::vector<KeyValue> merged =
      MergeIntoPairs(&delta, {{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  const std::vector<KeyValue> expected = {{1, 1}, {2, 20}, {4, 4}, {5, 50}};
  EXPECT_EQ(merged, expected);
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaBufferTest, MergeIntoEmptyStaticRun) {
  DeltaBuffer delta;
  delta.Put(7, 70);
  delta.Delete(8);
  delta.Put(3, 30);
  const std::vector<KeyValue> expected = {{3, 30}, {7, 70}};
  EXPECT_EQ(MergeIntoPairs(&delta, {}), expected);
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaBufferTest, MergeIntoOnlyTombstones) {
  DeltaBuffer delta;
  delta.Delete(1);
  delta.Delete(4);
  const std::vector<KeyValue> expected = {{2, 2}, {3, 3}};
  EXPECT_EQ(MergeIntoPairs(&delta, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}),
            expected);
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaBufferTest, MergeIntoTombstoneForAbsentKey) {
  DeltaBuffer delta;
  delta.Delete(0);   // Before the static run.
  delta.Delete(25);  // Between static keys.
  delta.Delete(99);  // After the static run.
  const std::vector<KeyValue> expected = {{10, 1}, {20, 2}, {30, 3}};
  EXPECT_EQ(MergeIntoPairs(&delta, {{10, 1}, {20, 2}, {30, 3}}), expected);
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaBufferTest, MergeIntoEmptyBufferLeavesArraysUntouched) {
  DeltaBuffer delta;
  std::vector<Key> keys = {10, 20, 30};
  std::vector<Value> values = {1, 2, 3};
  const Key* key_data = keys.data();
  const Value* value_data = values.data();
  delta.MergeInto(&keys, &values);
  EXPECT_EQ(keys.data(), key_data);
  EXPECT_EQ(values.data(), value_data);
  EXPECT_EQ(keys, (std::vector<Key>{10, 20, 30}));
  EXPECT_EQ(values, (std::vector<Value>{1, 2, 3}));
}

TEST(DeltaBufferTest, MergeScanInterleaves) {
  DeltaBuffer delta;
  delta.Put(15, 150);
  delta.Delete(20);
  const std::vector<Key> keys = {10, 20, 30};
  const std::vector<Value> values = {1, 2, 3};
  std::vector<KeyValue> out;
  const size_t got = delta.MergeScan(keys, values, 0, 10, &out);
  EXPECT_EQ(got, 3u);
  const std::vector<KeyValue> expected = {{10, 1}, {15, 150}, {30, 3}};
  EXPECT_EQ(out, expected);
}

TEST(DeltaBufferTest, MergeScanRespectsFromAndLimit) {
  DeltaBuffer delta;
  delta.Put(25, 250);
  const std::vector<Key> keys = {10, 20, 30, 40};
  const std::vector<Value> values = {1, 2, 3, 4};
  std::vector<KeyValue> out;
  EXPECT_EQ(delta.MergeScan(keys, values, 21, 2, &out), 2u);
  const std::vector<KeyValue> expected = {{25, 250}, {30, 3}};
  EXPECT_EQ(out, expected);
}

// ---------------------------------------------------------------------------
// RMI
// ---------------------------------------------------------------------------

class RmiParamTest : public ::testing::TestWithParam<int> {};

TEST_P(RmiParamTest, FindsEveryKeyOnVariedDistributions) {
  const int num_models = GetParam();
  const std::vector<std::unique_ptr<UnitDistribution>> dists = [] {
    std::vector<std::unique_ptr<UnitDistribution>> d;
    d.push_back(MakeUniform());
    d.push_back(MakeLognormal(0.0, 1.5));
    d.push_back(MakeClustered(10, 0.01, 7));
    return d;
  }();
  for (const auto& dist : dists) {
    DatasetOptions options;
    options.num_keys = 20000;
    options.seed = 99;
    const Dataset ds = GenerateDataset(*dist, options);
    RmiOptions rmi_options;
    rmi_options.num_leaf_models = num_models;
    RmiIndex rmi(rmi_options);
    rmi.BulkLoad(PairsFromDataset(ds));
    for (size_t i = 0; i < ds.keys.size(); i += 37) {
      ASSERT_TRUE(rmi.Get(ds.keys[i]).has_value())
          << dist->name() << " models=" << num_models;
      EXPECT_EQ(*rmi.Get(ds.keys[i]), static_cast<Value>(i));
    }
    // Absent probes.
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
      const Key probe = rng.Next() % ds.domain_max;
      const bool stored =
          std::binary_search(ds.keys.begin(), ds.keys.end(), probe);
      EXPECT_EQ(rmi.Get(probe).has_value(), stored);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ModelCounts, RmiParamTest,
                         ::testing::Values(1, 8, 64, 512));

TEST(RmiTest, MoreModelsTightenErrorBounds) {
  DatasetOptions options;
  options.num_keys = 50000;
  const Dataset ds = GenerateDataset(LognormalUnit(0.0, 2.0), options);
  RmiOptions few, many;
  few.num_leaf_models = 4;
  many.num_leaf_models = 1024;
  RmiIndex rmi_few(few), rmi_many(many);
  rmi_few.BulkLoad(PairsFromDataset(ds));
  rmi_many.BulkLoad(PairsFromDataset(ds));
  EXPECT_LT(rmi_many.model().model_error(), rmi_few.model().model_error());
}

TEST(RmiTest, DeltaInsertEraseRetrain) {
  Dataset ds = GenerateDataset(UniformUnit(), {10000, uint64_t{1} << 40, 3});
  RmiIndex rmi;
  rmi.BulkLoad(PairsFromDataset(ds));
  const size_t base = rmi.size();

  EXPECT_TRUE(rmi.Insert(ds.keys[10] + 1, 777));
  EXPECT_EQ(rmi.size(), base + 1);
  EXPECT_EQ(rmi.delta_size(), 1u);
  EXPECT_EQ(*rmi.Get(ds.keys[10] + 1), 777u);

  EXPECT_TRUE(rmi.Erase(ds.keys[20]));
  EXPECT_FALSE(rmi.Get(ds.keys[20]).has_value());
  EXPECT_EQ(rmi.size(), base);

  // Retrain folds the delta into the static part.
  rmi.Retrain();
  EXPECT_EQ(rmi.delta_size(), 0u);
  EXPECT_EQ(rmi.size(), base);
  EXPECT_EQ(*rmi.Get(ds.keys[10] + 1), 777u);
  EXPECT_FALSE(rmi.Get(ds.keys[20]).has_value());
}

TEST(RmiTest, TrainingSampleTradesAccuracy) {
  const Dataset ds =
      GenerateDataset(ClusteredUnit(30, 0.005, 11), {30000, uint64_t{1} << 40, 5});
  RmiOptions full, sampled;
  full.num_leaf_models = 64;
  sampled.num_leaf_models = 64;
  sampled.train_sample_every = 64;
  RmiIndex rmi_full(full), rmi_sampled(sampled);
  rmi_full.BulkLoad(PairsFromDataset(ds));
  rmi_sampled.BulkLoad(PairsFromDataset(ds));
  // Both stay correct (error bounds are exact regardless of sampling)...
  for (size_t i = 0; i < ds.keys.size(); i += 503) {
    ASSERT_TRUE(rmi_sampled.Get(ds.keys[i]).has_value());
    ASSERT_TRUE(rmi_full.Get(ds.keys[i]).has_value());
  }
  // ...and the cheap fit's error stays within a sane factor of the full
  // fit's. (Least squares minimizes *squared* error, so the subsampled fit
  // can occasionally have a smaller max error — no ordering is guaranteed.)
  EXPECT_LT(rmi_sampled.model().model_error(),
            rmi_full.model().model_error() * 50.0 + 50.0);
}

// ---------------------------------------------------------------------------
// PGM
// ---------------------------------------------------------------------------

class PgmParamTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PgmParamTest, FindsEveryKeyWithinEpsilon) {
  const uint32_t epsilon = GetParam();
  const Dataset ds = GenerateDataset(LognormalUnit(0.0, 1.0),
                                     {20000, uint64_t{1} << 44, 13});
  PgmIndex pgm(epsilon);
  pgm.BulkLoad(PairsFromDataset(ds));
  EXPECT_GT(pgm.model().segment_count(), 0u);
  for (size_t i = 0; i < ds.keys.size(); i += 29) {
    ASSERT_TRUE(pgm.Get(ds.keys[i]).has_value()) << "eps=" << epsilon;
    EXPECT_EQ(*pgm.Get(ds.keys[i]), static_cast<Value>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, PgmParamTest,
                         ::testing::Values(1u, 4u, 16u, 128u));

TEST(PgmTest, LargerEpsilonFewerSegments) {
  const Dataset ds = GenerateDataset(ClusteredUnit(50, 0.002, 17),
                                     {40000, uint64_t{1} << 44, 19});
  PgmIndex tight(4), loose(256);
  tight.BulkLoad(PairsFromDataset(ds));
  loose.BulkLoad(PairsFromDataset(ds));
  EXPECT_GT(tight.model().segment_count(), loose.model().segment_count());
}

TEST(PgmTest, PerfectlyLinearDataNeedsOneSegment) {
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 10000; ++i) pairs.emplace_back(i * 64, i);
  PgmIndex pgm(8);
  pgm.BulkLoad(pairs);
  EXPECT_EQ(pgm.model().segment_count(), 1u);
}

TEST(PgmTest, SurvivesDoublePrecisionCollapse) {
  // Near 2^63 the double ULP is 2048, so adjacent uint64 keys convert to
  // the *same* double. The cone must break segments there, not die.
  std::vector<KeyValue> pairs;
  const Key base = Key{1} << 63;
  for (Key i = 0; i < 5000; ++i) pairs.emplace_back(base + i * 3, i);
  PgmIndex pgm(8);
  pgm.BulkLoad(pairs);
  for (Key i = 0; i < 5000; i += 13) {
    ASSERT_TRUE(pgm.Get(base + i * 3).has_value()) << i;
    EXPECT_EQ(*pgm.Get(base + i * 3), i);
  }
  EXPECT_FALSE(pgm.Get(base + 1).has_value());
}

TEST(PgmTest, DeltaOperations) {
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 1000; ++i) pairs.emplace_back(i * 10, i);
  PgmIndex pgm(8);
  pgm.BulkLoad(pairs);
  EXPECT_TRUE(pgm.Insert(5, 500));
  EXPECT_FALSE(pgm.Insert(10, 600));  // Overwrite of static key.
  EXPECT_EQ(*pgm.Get(10), 600u);
  EXPECT_TRUE(pgm.Erase(20));
  EXPECT_EQ(pgm.size(), 1000u);  // 1000 + 1 insert - 1 erase (overwrite is neutral).
  pgm.Retrain();
  EXPECT_EQ(pgm.delta_size(), 0u);
  EXPECT_EQ(*pgm.Get(5), 500u);
  EXPECT_EQ(*pgm.Get(10), 600u);
  EXPECT_FALSE(pgm.Get(20).has_value());
}

// ---------------------------------------------------------------------------
// Model pins: exact fit results of RMI and PGM on one fixed key set, after a
// load, an empty-delta retrain and a retrain with writes. A change to how
// the indexes merge or fit must leave them bit-identical.
// ---------------------------------------------------------------------------

Dataset PinDataset() {
  DatasetOptions options;
  options.num_keys = 300000;
  options.domain_max = uint64_t{1} << 48;
  options.seed = 1;
  return GenerateDataset(LognormalUnit(0.0, 1.5), options);
}

/// 50,000 keys 3 apart just below 2^64, where adjacent keys collapse to the
/// same double and the shrinking cone restarts (its `dx <= 0` branch).
std::vector<Key> NearMaxKeys() {
  const Key base = std::numeric_limits<Key>::max() - 200000;
  std::vector<Key> keys;
  for (Key i = 0; i < 50000; ++i) keys.push_back(base + i * 3);
  return keys;
}

/// Every `PinEraseStride(keys)`-th loaded key, 100 of them, is what
/// ApplyPinWrites erases.
size_t PinEraseStride(const std::vector<Key>& keys) {
  return keys.size() / 100 - 1;
}

/// 1,000 inserts of random keys in [lo, lo + span) and 100 erases of loaded
/// keys, so the next Retrain merges live entries and tombstones.
void ApplyPinWrites(KvIndex* index, const std::vector<Key>& keys, Key lo,
                    Key span) {
  Rng rng(2);
  for (Value i = 0; i < 1000; ++i) {
    index->Insert(lo + rng.NextBounded(span), i);
  }
  const size_t stride = PinEraseStride(keys);
  for (size_t i = 0; i < 100; ++i) index->Erase(keys[i * stride]);
}

/// How many loaded keys `index` gets wrong: a key ApplyPinWrites erased must
/// be absent (when `erased`), every other loaded key present.
size_t MisreadLoadedKeys(const KvIndex& index, const std::vector<Key>& keys,
                         bool erased) {
  const size_t stride = PinEraseStride(keys);
  size_t wrong = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool gone = erased && i % stride == 0 && i / stride < 100;
    if (index.Get(keys[i]).has_value() == gone) ++wrong;
  }
  return wrong;
}

struct RmiPin {
  const char* point;
  double mean_leaf_error;
  uint32_t max_leaf_error;
  size_t fit_points;
};

TEST(LearnedModelPinTest, RmiLeafErrorsArePinned) {
  const Dataset ds = PinDataset();
  // train_sample_every 3 leaves most leaves' last key off the stride, so
  // it also pins the "always include the last key" branch.
  const std::vector<std::pair<int, std::vector<RmiPin>>> cases = {
      {1,
       {{"bulk_load", 0x1.08fp+5, 1542, 300000},
        {"retrain/empty", 0x1.08fp+5, 1542, 300000},
        {"retrain/writes", 0x1.a5a8p+5, 6259, 300900}}},
      {3,
       {{"bulk_load", 0x1.08f8p+5, 1542, 100137},
        {"retrain/empty", 0x1.08f8p+5, 1542, 100137},
        {"retrain/writes", 0x1.a578p+5, 6258, 100435}}},
  };
  for (const auto& [every, expected] : cases) {
    RmiOptions options;
    options.train_sample_every = every;
    RmiIndex rmi(options);
    std::vector<RmiPin> actual;
    auto record = [&](const char* point) {
      actual.push_back({point, rmi.model().model_error(),
                        rmi.model().MaxLeafError(), rmi.model().fit_work()});
    };
    rmi.BulkLoad(PairsFromDataset(ds));
    record("bulk_load");
    EXPECT_EQ(MisreadLoadedKeys(rmi, ds.keys, false), 0u);
    rmi.Retrain();
    record("retrain/empty");
    EXPECT_EQ(MisreadLoadedKeys(rmi, ds.keys, false), 0u);
    ApplyPinWrites(&rmi, ds.keys, 0, ds.domain_max);
    rmi.Retrain();
    record("retrain/writes");
    EXPECT_EQ(MisreadLoadedKeys(rmi, ds.keys, true), 0u);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      SCOPED_TRACE(std::string("every=") + std::to_string(every) + " " +
                   actual[i].point);
      EXPECT_EQ(actual[i].mean_leaf_error, expected[i].mean_leaf_error);
      EXPECT_EQ(actual[i].max_leaf_error, expected[i].max_leaf_error);
      EXPECT_EQ(actual[i].fit_points, expected[i].fit_points);
    }
  }
}

TEST(LearnedModelPinTest, PgmSegmentCountsArePinned) {
  const Dataset ds = PinDataset();
  const std::vector<Key> near_max = NearMaxKeys();
  struct PgmPinCase {
    const char* name;
    const std::vector<Key>* keys;
    Key write_lo;
    Key write_span;
    uint32_t epsilon;
    std::vector<size_t> segments;  // bulk_load, retrain/empty, retrain/writes
  };
  const PgmPinCase cases[] = {
      {"lognormal/eps64", &ds.keys, 0, ds.domain_max, 64, {62, 62, 62}},
      {"lognormal/eps16", &ds.keys, 0, ds.domain_max, 16, {429, 429, 426}},
      {"near_max/eps64", &near_max, near_max.front(), 150000, 64,
       {40525, 40525, 41085}},
  };
  for (const PgmPinCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<Key>& keys = *c.keys;
    std::vector<KeyValue> pairs;
    for (size_t i = 0; i < keys.size(); ++i) pairs.emplace_back(keys[i], i);
    PgmIndex pgm(c.epsilon);
    std::vector<size_t> actual;
    pgm.BulkLoad(pairs);
    actual.push_back(pgm.model().segment_count());
    EXPECT_EQ(MisreadLoadedKeys(pgm, keys, false), 0u) << "bulk_load";
    pgm.Retrain();
    actual.push_back(pgm.model().segment_count());
    EXPECT_EQ(MisreadLoadedKeys(pgm, keys, false), 0u) << "retrain/empty";
    ApplyPinWrites(&pgm, keys, c.write_lo, c.write_span);
    pgm.Retrain();
    actual.push_back(pgm.model().segment_count());
    EXPECT_EQ(MisreadLoadedKeys(pgm, keys, true), 0u) << "retrain/writes";
    EXPECT_EQ(actual, c.segments);
  }
}

// ---------------------------------------------------------------------------
// AdaptiveLearnedIndex
// ---------------------------------------------------------------------------

TEST(AdaptiveTest, SplitsUnderInsertPressure) {
  AdaptiveOptions options;
  options.max_segment_entries = 128;
  AdaptiveLearnedIndex alex(options);
  for (Key i = 0; i < 5000; ++i) {
    alex.Insert(i * 3, i);
  }
  alex.CheckInvariants();
  EXPECT_GT(alex.segment_count(), 1u);
  EXPECT_GT(alex.retrain_count(), 0u);
  EXPECT_GT(alex.retrain_work(), 0u);
  for (Key i = 0; i < 5000; i += 61) {
    ASSERT_TRUE(alex.Get(i * 3).has_value());
  }
}

TEST(AdaptiveTest, SkewedInsertBurstStaysCorrect) {
  AdaptiveOptions options;
  options.max_segment_entries = 256;
  AdaptiveLearnedIndex alex(options);
  // Bulk load uniform, then hammer one region (distribution shift).
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 10000; ++i) pairs.emplace_back(i * 1000, i);
  alex.BulkLoad(pairs);
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    const Key key = 5000000 + rng.NextBounded(100000);  // Hot region.
    alex.Insert(key, i);
  }
  alex.CheckInvariants();
  // Everything loaded and inserted is still findable.
  for (Key i = 0; i < 10000; i += 101) {
    ASSERT_TRUE(alex.Get(i * 1000).has_value());
  }
}

TEST(AdaptiveTest, EraseDrainsSegments) {
  AdaptiveOptions options;
  options.max_segment_entries = 64;
  AdaptiveLearnedIndex alex(options);
  for (Key i = 0; i < 1000; ++i) alex.Insert(i, i);
  const size_t segments_before = alex.segment_count();
  for (Key i = 0; i < 1000; ++i) EXPECT_TRUE(alex.Erase(i));
  EXPECT_EQ(alex.size(), 0u);
  EXPECT_LE(alex.segment_count(), segments_before);
  alex.CheckInvariants();
  // Still usable after draining.
  EXPECT_TRUE(alex.Insert(5, 5));
  EXPECT_EQ(*alex.Get(5), 5u);
}

}  // namespace
}  // namespace lsbench
