// The spec files under specs/bench/ describe the benchmark's own workloads:
// each must build the same datasets, byte for byte, and the same run
// identity (StructuralHash) as the definition in benchmark/workloads.cc at
// seed 1 and full scale. That file is compiled into this test as it is.

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
}

INSTANTIATE_TEST_SUITE_P(Workloads, BenchSpecTest,
                         ::testing::Values("cached_batch", "dram_read"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

}  // namespace
}  // namespace lsbench
