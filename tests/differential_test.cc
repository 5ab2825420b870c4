// Differential testing of every SUT against a std::map oracle: seeded
// random operation sequences (insert / lookup / scan / delete / update /
// range-count) must produce identical observable outcomes (ok, rows) on the
// real systems and on the trivially-correct reference. On divergence the
// test reports the seed and a greedily minimized reproducer trace, so a
// failure is directly actionable without re-running the fuzzer.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sut/concurrent_kv.h"
#include "sut/systems.h"
#include "util/env.h"
#include "util/random.h"

namespace lsbench {
namespace {

std::unique_ptr<SystemUnderTest> MakeSut(const std::string& kind) {
  if (kind == "btree") return std::make_unique<BTreeSystem>();
  if (kind == "rmi") {
    LearnedSystemOptions options;
    // Delta-threshold retraining fires repeatedly under a write-heavy
    // differential sequence — the interesting path to cross-check.
    options.retrain_policy = RetrainPolicy::kDeltaThreshold;
    options.delta_threshold_fraction = 0.05;
    return std::make_unique<LearnedKvSystem>(options);
  }
  if (kind == "pgm") {
    LearnedSystemOptions options;
    options.index_kind = LearnedSystemOptions::IndexKind::kPgm;
    options.retrain_policy = RetrainPolicy::kDeltaThreshold;
    options.delta_threshold_fraction = 0.05;
    return std::make_unique<LearnedKvSystem>(options);
  }
  if (kind == "adaptive") return std::make_unique<AdaptiveKvSystem>();
  if (kind == "partitioned") return std::make_unique<PartitionedKvSystem>(8);
  return nullptr;
}

/// The trivially-correct reference: a std::map mirroring the SUT contract
/// (upsert inserts, scan = up-to-limit entries with key >= from, range
/// count over the inclusive interval).
class MapOracle {
 public:
  explicit MapOracle(const std::vector<KeyValue>& initial) {
    for (const auto& [k, v] : initial) data_.emplace(k, v);
  }

  OpResult Execute(const Operation& op) {
    OpResult result;
    switch (op.type) {
      case OpType::kGet: {
        result.ok = data_.count(op.key) > 0;
        result.rows = result.ok ? 1 : 0;
        break;
      }
      case OpType::kScan: {
        uint64_t rows = 0;
        for (auto it = data_.lower_bound(op.key);
             it != data_.end() && rows < op.scan_length; ++it) {
          ++rows;
        }
        result.ok = true;
        result.rows = rows;
        break;
      }
      case OpType::kInsert:
      case OpType::kUpdate: {
        data_[op.key] = op.value;
        result.ok = true;
        result.rows = 1;
        break;
      }
      case OpType::kDelete: {
        result.ok = data_.erase(op.key) > 0;
        result.rows = result.ok ? 1 : 0;
        break;
      }
      case OpType::kRangeCount: {
        uint64_t rows = 0;
        for (auto it = data_.lower_bound(op.key);
             it != data_.end() && it->first <= op.range_end; ++it) {
          ++rows;
        }
        result.ok = true;
        result.rows = rows;
        break;
      }
      case OpType::kBatchGet:
      case OpType::kBatchPut:
        ADD_FAILURE() << "the op generator draws no batch op";
        break;
    }
    return result;
  }

 private:
  std::map<Key, Value> data_;
};

/// Small key domain so inserts collide with loaded keys and deletes hit.
constexpr uint64_t kKeyDomain = 4096;

std::vector<KeyValue> MakeInitialPairs(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::set<Key> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(kKeyDomain));
  std::vector<KeyValue> pairs;
  pairs.reserve(keys.size());
  Value v = 0;
  for (Key k : keys) pairs.emplace_back(k, v++);
  return pairs;
}

std::vector<Operation> MakeOps(uint64_t seed, size_t count) {
  Rng rng(seed ^ 0x09051eedULL);
  std::vector<Operation> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Operation op;
    op.key = rng.NextBounded(kKeyDomain);
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 35) {
      op.type = OpType::kGet;
    } else if (dice < 60) {
      op.type = OpType::kInsert;
      op.value = static_cast<Value>(rng.Next());
    } else if (dice < 75) {
      op.type = OpType::kDelete;
    } else if (dice < 85) {
      op.type = OpType::kScan;
      op.scan_length = static_cast<uint32_t>(1 + rng.NextBounded(16));
    } else if (dice < 92) {
      op.type = OpType::kUpdate;
      op.value = static_cast<Value>(rng.Next());
    } else {
      op.type = OpType::kRangeCount;
      op.range_end = op.key + rng.NextBounded(kKeyDomain / 8);
    }
    ops.push_back(op);
  }
  return ops;
}

std::string FormatOp(const Operation& op) {
  std::ostringstream os;
  os << OpTypeToString(op.type) << " key=" << op.key;
  if (op.type == OpType::kScan) os << " len=" << op.scan_length;
  if (op.type == OpType::kRangeCount) os << " end=" << op.range_end;
  if (op.type == OpType::kInsert || op.type == OpType::kUpdate) {
    os << " value=" << op.value;
  }
  return os.str();
}

std::string FormatOps(const std::vector<Operation>& ops) {
  std::ostringstream os;
  for (size_t i = 0; i < ops.size(); ++i) {
    os << "  [" << i << "] " << FormatOp(ops[i]) << "\n";
  }
  return os.str();
}

/// Replays `ops` on a fresh SUT and the oracle; returns the index of the
/// first diverging operation (-1 if none). `detail`, when non-null, gets a
/// human-readable description of the mismatch.
int FirstDivergence(const std::string& kind,
                    const std::vector<KeyValue>& initial,
                    const std::vector<Operation>& ops, std::string* detail) {
  const std::unique_ptr<SystemUnderTest> sut = MakeSut(kind);
  if (sut == nullptr) return -2;
  if (!sut->Load(initial).ok()) return -3;
  const TrainReport train = sut->Train();
  (void)train;
  MapOracle oracle(initial);
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpResult got = sut->Execute(ops[i]);
    const OpResult want = oracle.Execute(ops[i]);
    if (got.ok != want.ok || got.rows != want.rows) {
      if (detail != nullptr) {
        std::ostringstream os;
        os << FormatOp(ops[i]) << ": sut(ok=" << got.ok
           << ", rows=" << got.rows << ") vs oracle(ok=" << want.ok
           << ", rows=" << want.rows << ")";
        *detail = os.str();
      }
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Greedy delta-debugging: drop every operation that is not needed to keep
/// the sequence diverging. Only runs on failure, so the quadratic replay
/// cost never taxes a passing suite.
std::vector<Operation> MinimizeOps(const std::string& kind,
                                   const std::vector<KeyValue>& initial,
                                   std::vector<Operation> ops,
                                   int first_divergence) {
  ops.resize(static_cast<size_t>(first_divergence) + 1);
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; ops.size() > 1 && i < ops.size() - 1;) {
      std::vector<Operation> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (FirstDivergence(kind, initial, candidate, nullptr) >= 0) {
        ops = std::move(candidate);
        progress = true;
      } else {
        ++i;
      }
    }
  }
  return ops;
}

class DifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DifferentialTest, MatchesStdMapOracle) {
  const std::string kind = GetParam();
  const int rounds = EnvFlagEnabled("LSBENCH_QUICK") ? 4 : 10;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = 0x5eed0000ULL + static_cast<uint64_t>(round);
    const std::vector<KeyValue> initial = MakeInitialPairs(seed, 512);
    const std::vector<Operation> ops = MakeOps(seed, 800);
    std::string detail;
    const int divergence = FirstDivergence(kind, initial, ops, &detail);
    ASSERT_GE(divergence, -1) << "SUT setup failed for '" << kind << "'";
    if (divergence >= 0) {
      const std::vector<Operation> minimal =
          MinimizeOps(kind, initial, ops, divergence);
      FAIL() << "SUT '" << kind << "' diverged from the std::map oracle at "
             << "op " << divergence << " (seed=" << seed << "): " << detail
             << "\nminimal reproducer (" << minimal.size()
             << " ops, rebuild initial pairs from the seed):\n"
             << FormatOps(minimal);
    }
  }
}

// Batch ops are one request unit but per-element results must agree with
// what a scalar twin produces element-by-element: each native ExecuteBatch
// override (direct B-tree / learned-index calls, partition-grouped fan-out)
// is differentially pinned against Execute(ScalarViewOf(op, i)) on a second
// instance loaded identically. Duplicate keys inside a put batch apply in
// element order on both sides.
TEST_P(DifferentialTest, BatchMatchesScalarElementwise) {
  const std::string kind = GetParam();
  const uint64_t seed = 0xba7c0001ULL;
  const std::vector<KeyValue> initial = MakeInitialPairs(seed, 512);
  const std::unique_ptr<SystemUnderTest> batch_sut = MakeSut(kind);
  const std::unique_ptr<SystemUnderTest> scalar_sut = MakeSut(kind);
  ASSERT_NE(batch_sut, nullptr);
  ASSERT_TRUE(batch_sut->Load(initial).ok());
  ASSERT_TRUE(scalar_sut->Load(initial).ok());
  (void)batch_sut->Train();
  (void)scalar_sut->Train();

  Rng rng(seed);
  std::vector<Key> keys;
  std::vector<Value> values;
  std::vector<OpResult> results;
  for (int round = 0; round < 64; ++round) {
    const bool put = round % 2 == 1;
    const uint32_t n = static_cast<uint32_t>(1 + rng.NextBounded(64));
    keys.resize(n);
    values.resize(n);
    results.assign(n, OpResult());
    for (uint32_t i = 0; i < n; ++i) {
      keys[i] = rng.NextBounded(kKeyDomain);
      values[i] = static_cast<Value>(rng.Next());
    }

    Operation op;
    op.type = put ? OpType::kBatchPut : OpType::kBatchGet;
    op.key = keys[0];
    op.batch_keys = keys.data();
    op.batch_values = put ? values.data() : nullptr;
    op.batch_size = n;

    batch_sut->ExecuteBatch(op, results.data());
    for (uint32_t i = 0; i < n; ++i) {
      const OpResult want = scalar_sut->Execute(ScalarViewOf(op, i));
      ASSERT_EQ(results[i].ok, want.ok)
          << kind << " round " << round << " element " << i << " ("
          << (put ? "batch_put" : "batch_get") << " key=" << keys[i] << ")";
      ASSERT_EQ(results[i].rows, want.rows)
          << kind << " round " << round << " element " << i;
      ASSERT_TRUE(results[i].status.ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuts, DifferentialTest,
                         ::testing::Values("btree", "rmi", "pgm", "adaptive",
                                           "partitioned"));

}  // namespace
}  // namespace lsbench
