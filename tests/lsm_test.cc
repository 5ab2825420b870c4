#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "index/bloom.h"
#include "index/lsm.h"
#include "util/random.h"

namespace lsbench {
namespace {

// ---------------------------------------------------------------------------
// BloomFilter
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(10000, 10);
  Rng rng(1);
  std::vector<Key> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(rng.Next());
  for (Key k : keys) bloom.Add(k);
  for (Key k : keys) EXPECT_TRUE(bloom.MayContain(k));
}

TEST(BloomFilterTest, FalsePositiveRateNearTheory) {
  BloomFilter bloom(10000, 10);
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) bloom.Add(rng.Next());
  int false_positives = 0;
  const int probes = 100000;
  Rng probe_rng(3);  // Different stream: collisions are negligible.
  for (int i = 0; i < probes; ++i) {
    if (bloom.MayContain(probe_rng.Next())) ++false_positives;
  }
  // 10 bits/key with 7 probes: theoretical ~0.8%; allow generous slack.
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.03);
  EXPECT_GT(false_positives, 0);  // A Bloom filter does have some.
}

TEST(BloomFilterTest, FillRatioNearHalfAtOptimalProbes) {
  BloomFilter bloom(5000, 10);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) bloom.Add(rng.Next());
  EXPECT_NEAR(bloom.FillRatio(), 0.5, 0.05);
}

TEST(BloomFilterTest, MoreBitsFewerFalsePositives) {
  auto fp_rate = [](int bits_per_key) {
    BloomFilter bloom(5000, bits_per_key);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i) bloom.Add(rng.Next());
    Rng probe_rng(6);
    int fp = 0;
    for (int i = 0; i < 50000; ++i) {
      if (bloom.MayContain(probe_rng.Next())) ++fp;
    }
    return static_cast<double>(fp);
  };
  EXPECT_GT(fp_rate(4), fp_rate(16));
}

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  const BloomFilter bloom(100, 10);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(bloom.MayContain(rng.Next()));
}

// ---------------------------------------------------------------------------
// LsmTree
// ---------------------------------------------------------------------------

LsmOptions SmallLsm() {
  LsmOptions options;
  options.memtable_limit = 64;
  options.level_size_ratio = 4;
  return options;
}

TEST(LsmTest, BasicOps) {
  LsmTree lsm(SmallLsm());
  EXPECT_TRUE(lsm.Insert(10, 100));
  EXPECT_FALSE(lsm.Insert(10, 200));  // Overwrite.
  EXPECT_EQ(lsm.size(), 1u);
  EXPECT_EQ(*lsm.Get(10), 200u);
  EXPECT_TRUE(lsm.Erase(10));
  EXPECT_FALSE(lsm.Erase(10));
  EXPECT_FALSE(lsm.Get(10).has_value());
  EXPECT_EQ(lsm.size(), 0u);
}

TEST(LsmTest, FlushesAndCompactsUnderLoad) {
  LsmTree lsm(SmallLsm());
  for (Key i = 0; i < 5000; ++i) lsm.Insert(i, i);
  EXPECT_GT(lsm.compaction_count(), 0u);
  EXPECT_GT(lsm.level_count(), 1u);
  EXPECT_LT(lsm.memtable_size(), 64u);
  lsm.CheckInvariants();
  for (Key i = 0; i < 5000; i += 37) {
    ASSERT_TRUE(lsm.Get(i).has_value()) << i;
    EXPECT_EQ(*lsm.Get(i), i);
  }
}

TEST(LsmTest, TombstonesMaskDeeperVersions) {
  LsmTree lsm(SmallLsm());
  // Push key 5 deep via many flushes, then delete it.
  lsm.Insert(5, 55);
  for (Key i = 1000; i < 2000; ++i) lsm.Insert(i, i);
  ASSERT_TRUE(lsm.Get(5).has_value());
  EXPECT_TRUE(lsm.Erase(5));
  EXPECT_FALSE(lsm.Get(5).has_value());
  // Scans also honor the tombstone.
  std::vector<KeyValue> out;
  lsm.Scan(0, 10, &out);
  ASSERT_FALSE(out.empty());
  EXPECT_NE(out.front().first, 5u);
  lsm.CheckInvariants();
}

TEST(LsmTest, ScanMergesAllSources) {
  LsmTree lsm(SmallLsm());
  // Interleave so data lands in multiple levels + memtable.
  for (Key i = 0; i < 3000; i += 3) lsm.Insert(i, i);
  for (Key i = 1; i < 3000; i += 3) lsm.Insert(i, i);
  for (Key i = 2; i < 3000; i += 3) lsm.Insert(i, i);
  std::vector<KeyValue> out;
  EXPECT_EQ(lsm.Scan(0, 3000, &out), 3000u);
  for (Key i = 0; i < 3000; ++i) {
    EXPECT_EQ(out[i].first, i);
    EXPECT_EQ(out[i].second, i);
  }
}

TEST(LsmTest, BulkLoadPlacesBottomRun) {
  LsmTree lsm(SmallLsm());
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 10000; ++i) pairs.emplace_back(i * 2, i);
  lsm.BulkLoad(pairs);
  EXPECT_EQ(lsm.size(), 10000u);
  EXPECT_EQ(lsm.compaction_count(), 0u);  // Direct placement, no compaction.
  lsm.CheckInvariants();
  EXPECT_EQ(*lsm.Get(19998), 9999u);
  EXPECT_FALSE(lsm.Get(19999).has_value());
}

TEST(LsmTest, DifferentialAgainstStdMap) {
  LsmTree lsm(SmallLsm());
  std::map<Key, Value> reference;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const Key key = rng.NextBounded(2000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        const Value value = rng.Next();
        const bool fresh = reference.find(key) == reference.end();
        EXPECT_EQ(lsm.Insert(key, value), fresh);
        reference[key] = value;
        break;
      }
      case 2: {
        const bool existed = reference.erase(key) > 0;
        EXPECT_EQ(lsm.Erase(key), existed);
        break;
      }
      default: {
        const auto it = reference.find(key);
        const auto got = lsm.Get(key);
        if (it == reference.end()) {
          EXPECT_FALSE(got.has_value());
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, it->second);
        }
      }
    }
    if (i % 5000 == 0) lsm.CheckInvariants();
  }
  lsm.CheckInvariants();
  EXPECT_EQ(lsm.size(), reference.size());
  std::vector<KeyValue> all;
  lsm.Scan(0, reference.size() + 10, &all);
  ASSERT_EQ(all.size(), reference.size());
  auto it = reference.begin();
  for (const auto& [k, v] : all) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(LsmTest, BloomFiltersPruneAbsentLookups) {
  LsmTree lsm(SmallLsm());
  for (Key i = 0; i < 5000; ++i) lsm.Insert(i * 1000, i);
  const uint64_t before = lsm.bloom_negative_count();
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    lsm.Get(rng.Next());  // Essentially always absent.
  }
  EXPECT_GT(lsm.bloom_negative_count(), before + 500);
}

// ---------------------------------------------------------------------------
// Learned runs (Bourbon-style)
// ---------------------------------------------------------------------------

LsmOptions LearnedLsm() {
  LsmOptions options = SmallLsm();
  options.learned_runs = true;
  options.learned_epsilon = 8;
  return options;
}

TEST(LearnedLsmTest, BuildsModelsAndAnswersCorrectly) {
  LsmTree lsm(LearnedLsm());
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 20000; ++i) pairs.emplace_back(i * 7, i);
  lsm.BulkLoad(pairs);
  EXPECT_GT(lsm.ModelSegments(), 0u);
  EXPECT_EQ(lsm.name(), "lsm_learned");
  for (Key i = 0; i < 20000; i += 97) {
    ASSERT_TRUE(lsm.Get(i * 7).has_value());
    EXPECT_EQ(*lsm.Get(i * 7), i);
    EXPECT_FALSE(lsm.Get(i * 7 + 1).has_value());
  }
}

TEST(LearnedLsmTest, ModelsSurviveCompactions) {
  LsmTree learned(LearnedLsm());
  LsmTree plain(SmallLsm());
  Rng rng(17);
  for (int i = 0; i < 15000; ++i) {
    const Key key = rng.NextBounded(5000);
    if (rng.NextBool(0.8)) {
      const Value value = rng.Next();
      learned.Insert(key, value);
      plain.Insert(key, value);
    } else {
      learned.Erase(key);
      plain.Erase(key);
    }
  }
  learned.CheckInvariants();
  EXPECT_EQ(learned.size(), plain.size());
  // Both engines agree on every probe.
  for (Key key = 0; key < 5000; key += 7) {
    const auto a = learned.Get(key);
    const auto b = plain.Get(key);
    EXPECT_EQ(a.has_value(), b.has_value()) << key;
    if (a.has_value()) {
      EXPECT_EQ(*a, *b);
    }
  }
}

// ---------------------------------------------------------------------------
// SegmentModel
// ---------------------------------------------------------------------------

TEST(SegmentModelTest, WindowContainsEveryPresentKey) {
  Rng rng(23);
  std::vector<Key> keys;
  Key k = 0;
  for (int i = 0; i < 50000; ++i) {
    k += 1 + rng.NextBounded(1000);
    keys.push_back(k);
  }
  SegmentModel model(16);
  model.Build(keys.data(), keys.size());
  EXPECT_GT(model.segment_count(), 0u);
  // Membership guarantee: every present key's true position is inside its
  // window, and windows are bounded by 2*eps+1.
  for (size_t i = 0; i < keys.size(); i += 11) {
    const auto [lo, hi] = model.WindowFor(keys[i]);
    ASSERT_LE(hi - lo, 2u * 16 + 1);
    EXPECT_GE(i, lo);
    EXPECT_LT(i, hi);
  }
  // Absent probes still get bounded windows (content unspecified).
  for (int i = 0; i < 1000; ++i) {
    const auto [lo, hi] = model.WindowFor(rng.NextBounded(k + 1000));
    EXPECT_LE(hi - lo, 2u * 16 + 1);
    EXPECT_LE(hi, keys.size());
  }
}

TEST(SegmentModelTest, EmptyAndSingle) {
  SegmentModel model(4);
  EXPECT_TRUE(model.empty());
  const Key one = 42;
  model.Build(&one, 1);
  const auto [lo, hi] = model.WindowFor(42);
  EXPECT_EQ(lo, 0u);
  EXPECT_GE(hi, 1u);
}

TEST(LsmTest, CompactionWorkTracksWriteAmplification) {
  LsmTree lsm(SmallLsm());
  for (Key i = 0; i < 20000; ++i) lsm.Insert(i, i);
  // Leveled compaction rewrites entries multiple times: work > inserts.
  EXPECT_GT(lsm.compaction_work(), 20000u);
}

}  // namespace
}  // namespace lsbench
