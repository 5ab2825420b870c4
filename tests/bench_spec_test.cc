// The spec files under specs/bench/ describe the benchmark's own workloads:
// each must build the same datasets, byte for byte, and the same run
// identity (StructuralHash) as the definition in benchmark/workloads.cc at
// seed 1 and full scale. That file is compiled into this test as it is.
// Every workload's keys are also pinned to a recorded hash, so a generator
// that goes wrong the same way on both builds still fails.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "benchmark/workloads.h"
#include "core/spec_text.h"

namespace lsbench {
namespace {

uint64_t Fnv1a64(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// What the spec file and the benchmark must agree on.
struct RunIdentity {
  uint64_t structural = 0;
  uint64_t keys = 0;  ///< FNV-1a over every dataset's keys, in order.
};

/// Hashes a built spec. Taking it by value frees its keys on return, so
/// the two 14M-key dram_read builds are never held at once.
RunIdentity Identify(RunSpec spec) {
  RunIdentity id;
  id.structural = spec.StructuralHash();
  id.keys = 0xcbf29ce484222325ull;
  for (const Dataset& ds : spec.datasets) {
    id.keys = Fnv1a64(ds.keys.data(), ds.keys.size() * sizeof(uint64_t),
                      id.keys);
  }
  return id;
}

/// FNV-1a over every dataset's keys of each benchmark workload at seed 1 and
/// full scale, recorded with the comparison sort that the radix sort in
/// ParallelSortKeys replaced. dram_read's 14M keys are the full-size check
/// of that sort's multi-block path.
uint64_t PinnedKeys(const std::string& workload) {
  if (workload == "cached_batch") return 0xc752b115eef2e9aeull;
  if (workload == "dram_read") return 0x3b7946641c492c18ull;
  if (workload == "drift_write") return 0x97cf0cbe4aa74a2bull;
  if (workload == "open_loop") return 0x899dc77b690a42cbull;
  ADD_FAILURE() << "no key pin for workload " << workload;
  return 0;
}

class BenchSpecTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchSpecTest, SpecFileBuildsTheBenchmarkWorkload) {
  const bm::Workload* workload = bm::FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  Result<RunSpec> loaded = LoadRunSpecFile(
      std::string(LSBENCH_SPEC_DIR) + "/bench/" + GetParam() + ".lsb");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const RunIdentity from_file = Identify(std::move(loaded).value());
  const RunIdentity in_code = Identify(workload->build_spec(1, 1));
  EXPECT_EQ(from_file.keys, in_code.keys);
  EXPECT_EQ(from_file.structural, in_code.structural);
  EXPECT_EQ(in_code.keys, PinnedKeys(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Workloads, BenchSpecTest,
                         ::testing::Values("cached_batch", "dram_read"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

// The workloads with no spec file: their keys are checked against the pin
// alone. (The ones with a spec file are pinned above, so dram_read's keys
// are not generated a third time.)
class WorkloadKeysTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadKeysTest, KeysArePinned) {
  const bm::Workload* workload = bm::FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  EXPECT_EQ(Identify(workload->build_spec(1, 1)).keys,
            PinnedKeys(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadKeysTest,
                         ::testing::Values("drift_write", "open_loop"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

}  // namespace
}  // namespace lsbench
