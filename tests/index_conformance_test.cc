#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "index/btree.h"
#include "index/kv_index.h"
#include "index/lsm.h"
#include "learned/adaptive.h"
#include "learned/pgm.h"
#include "learned/rmi.h"
#include "util/random.h"

namespace lsbench {
namespace {

/// Factory + label for every KvIndex implementation in the library. The
/// same behavioral contract must hold for traditional and learned indexes —
/// precisely the "benchmark must not impose architectural constraints"
/// stance of the paper, expressed as a conformance suite.
struct IndexFactory {
  std::string label;
  std::function<std::unique_ptr<KvIndex>()> make;
};

std::vector<IndexFactory> AllFactories() {
  return {
      {"btree", [] { return std::make_unique<BTree>(16); }},
      {"lsm",
       [] {
         LsmOptions options;
         options.memtable_limit = 128;
         options.level_size_ratio = 4;
         return std::make_unique<LsmTree>(options);
       }},
      {"lsm_learned",
       [] {
         LsmOptions options;
         options.memtable_limit = 128;
         options.level_size_ratio = 4;
         options.learned_runs = true;
         options.learned_epsilon = 8;
         return std::make_unique<LsmTree>(options);
       }},
      {"rmi",
       [] {
         RmiOptions options;
         options.num_leaf_models = 32;
         return std::make_unique<RmiIndex>(options);
       }},
      {"pgm", [] { return std::make_unique<PgmIndex>(16); }},
      {"alex_lite",
       [] {
         AdaptiveOptions options;
         options.max_segment_entries = 256;
         return std::make_unique<AdaptiveLearnedIndex>(options);
       }},
  };
}

class IndexConformanceTest : public ::testing::TestWithParam<IndexFactory> {
 protected:
  std::unique_ptr<KvIndex> index_ = GetParam().make();
};

TEST_P(IndexConformanceTest, StartsEmpty) {
  EXPECT_EQ(index_->size(), 0u);
  EXPECT_TRUE(index_->empty());
  EXPECT_FALSE(index_->Get(1).has_value());
  EXPECT_FALSE(index_->Erase(1));
  std::vector<KeyValue> out;
  EXPECT_EQ(index_->Scan(0, 10, &out), 0u);
}

TEST_P(IndexConformanceTest, InsertThenGet) {
  EXPECT_TRUE(index_->Insert(100, 7));
  EXPECT_EQ(index_->size(), 1u);
  ASSERT_TRUE(index_->Get(100).has_value());
  EXPECT_EQ(*index_->Get(100), 7u);
  EXPECT_FALSE(index_->Get(99).has_value());
  EXPECT_FALSE(index_->Get(101).has_value());
}

TEST_P(IndexConformanceTest, OverwriteKeepsSizeAndUpdatesValue) {
  index_->Insert(5, 1);
  EXPECT_FALSE(index_->Insert(5, 2));
  EXPECT_EQ(index_->size(), 1u);
  EXPECT_EQ(*index_->Get(5), 2u);
}

TEST_P(IndexConformanceTest, EraseRemoves) {
  index_->Insert(5, 1);
  index_->Insert(6, 2);
  EXPECT_TRUE(index_->Erase(5));
  EXPECT_FALSE(index_->Erase(5));
  EXPECT_EQ(index_->size(), 1u);
  EXPECT_FALSE(index_->Get(5).has_value());
  EXPECT_TRUE(index_->Get(6).has_value());
}

TEST_P(IndexConformanceTest, BulkLoadThenLookupAll) {
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 2000; ++i) pairs.emplace_back(i * 7 + 3, i);
  index_->BulkLoad(pairs);
  EXPECT_EQ(index_->size(), pairs.size());
  for (const auto& [k, v] : pairs) {
    ASSERT_TRUE(index_->Get(k).has_value()) << GetParam().label << " key " << k;
    EXPECT_EQ(*index_->Get(k), v);
  }
  // Neighbors of stored keys must be absent.
  EXPECT_FALSE(index_->Get(2).has_value());
  EXPECT_FALSE(index_->Get(4).has_value());
  EXPECT_FALSE(index_->Get(pairs.back().first + 1).has_value());
}

TEST_P(IndexConformanceTest, BulkLoadKeysEqualsBulkLoadOfPositions) {
  // Key i of the span holds first_value + i: the index is the one BulkLoad
  // builds from those pairs.
  constexpr Value kFirstValue = 100;
  std::vector<Key> keys;
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 2000; ++i) {
    keys.push_back(i * 7 + 3);
    pairs.emplace_back(i * 7 + 3, kFirstValue + i);
  }
  index_->BulkLoadKeys(keys, kFirstValue);
  const std::unique_ptr<KvIndex> reference = GetParam().make();
  reference->BulkLoad(pairs);
  EXPECT_EQ(index_->size(), reference->size());
  EXPECT_EQ(index_->MemoryBytes(), reference->MemoryBytes());
  std::vector<KeyValue> scanned;
  index_->Scan(0, pairs.size() + 1, &scanned);
  EXPECT_EQ(scanned, pairs);
  for (const auto& [k, v] : pairs) {
    ASSERT_EQ(index_->Get(k), std::optional<Value>(v)) << "key " << k;
  }
  EXPECT_FALSE(index_->Get(4).has_value());
}

/// The points the learned index's model last fitted over, or nothing for
/// an index without a position model.
std::optional<size_t> FitWork(const KvIndex& index) {
  if (const auto* rmi = dynamic_cast<const RmiIndex*>(&index)) {
    return rmi->model().fit_work();
  }
  if (const auto* pgm = dynamic_cast<const PgmIndex*>(&index)) {
    return pgm->model().fit_work();
  }
  return std::nullopt;
}

TEST_P(IndexConformanceTest, LearnedBulkLoadsFitTheModel) {
  // An index-level bulk load returns a fitted index; only a learned SUT
  // defers the fit to its Train.
  if (!FitWork(*index_).has_value()) GTEST_SKIP() << "no position model";
  std::vector<Key> keys;
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 2000; ++i) {
    keys.push_back(i * 7 + 3);
    pairs.emplace_back(i * 7 + 3, i);
  }
  index_->BulkLoad(pairs);
  EXPECT_GT(FitWork(*index_).value(), 0u) << "BulkLoad";
  const std::unique_ptr<KvIndex> by_keys = GetParam().make();
  by_keys->BulkLoadKeys(keys, 0);
  EXPECT_GT(FitWork(*by_keys).value(), 0u) << "BulkLoadKeys";
}

TEST_P(IndexConformanceTest, ScanIsSortedAndBounded) {
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 500; ++i) pairs.emplace_back(i * 10, i);
  index_->BulkLoad(pairs);
  std::vector<KeyValue> out;
  const size_t got = index_->Scan(101, 25, &out);
  EXPECT_EQ(got, 25u);
  ASSERT_EQ(out.size(), 25u);
  EXPECT_EQ(out.front().first, 110u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
}

TEST_P(IndexConformanceTest, ScanHonorsLimitLargerThanRemainder) {
  index_->Insert(1, 1);
  index_->Insert(2, 2);
  std::vector<KeyValue> out;
  EXPECT_EQ(index_->Scan(0, 100, &out), 2u);
}

TEST_P(IndexConformanceTest, MixedWorkloadMatchesStdMap) {
  std::map<Key, Value> reference;
  Rng rng(555);
  // Warm start so learned structures have something to model.
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 1000; ++i) pairs.emplace_back(i * 100 + 50, i);
  index_->BulkLoad(pairs);
  for (const auto& [k, v] : pairs) reference[k] = v;

  for (int i = 0; i < 8000; ++i) {
    const Key key = rng.NextBounded(120000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        const Value value = rng.Next() % 1000;
        const bool fresh = reference.find(key) == reference.end();
        EXPECT_EQ(index_->Insert(key, value), fresh)
            << GetParam().label << " op " << i;
        reference[key] = value;
        break;
      }
      case 2: {
        const bool existed = reference.erase(key) > 0;
        EXPECT_EQ(index_->Erase(key), existed)
            << GetParam().label << " op " << i;
        break;
      }
      default: {
        const auto it = reference.find(key);
        const auto got = index_->Get(key);
        if (it == reference.end()) {
          EXPECT_FALSE(got.has_value()) << GetParam().label << " op " << i;
        } else {
          ASSERT_TRUE(got.has_value()) << GetParam().label << " op " << i;
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(index_->size(), reference.size()) << GetParam().label;

  // Final scan equivalence.
  std::vector<KeyValue> all;
  index_->Scan(0, reference.size() + 10, &all);
  ASSERT_EQ(all.size(), reference.size()) << GetParam().label;
  auto it = reference.begin();
  for (const auto& [k, v] : all) {
    EXPECT_EQ(k, it->first) << GetParam().label;
    EXPECT_EQ(v, it->second) << GetParam().label;
    ++it;
  }
}

TEST_P(IndexConformanceTest, MemoryBytesIsPositiveWhenLoaded) {
  std::vector<KeyValue> pairs;
  for (Key i = 0; i < 1000; ++i) pairs.emplace_back(i, i);
  index_->BulkLoad(pairs);
  EXPECT_GT(index_->MemoryBytes(), 1000u * 8);
}

TEST_P(IndexConformanceTest, NameIsNonEmpty) {
  EXPECT_FALSE(index_->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexConformanceTest, ::testing::ValuesIn(AllFactories()),
    [](const ::testing::TestParamInfo<IndexFactory>& param_info) {
      return param_info.param.label;
    });

}  // namespace
}  // namespace lsbench
