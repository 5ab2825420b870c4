#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "data/distinct_draws.h"
#include "util/random.h"

namespace lsbench {
namespace {

// Every input shape and size sorts to exactly what std::sort gives, at every
// part count. The sizes straddle the split threshold (2 * kMinPartKeys), so
// most of them start real threads; "three" puts long runs of one value
// across the nth_element split.
TEST(ParallelSortKeysTest, MatchesStdSort) {
  constexpr size_t kSplit = 2 * kMinPartKeys;
  const size_t sizes[] = {0,         1,         kSplit - 1,  kSplit,
                          kSplit + 1, 3 * kSplit + 5, 1000000};
  const char* const shapes[] = {"random", "equal", "sorted", "reversed",
                                "three"};
  for (const size_t n : sizes) {
    for (const std::string shape : shapes) {
      Rng rng(n + 1);
      std::vector<uint64_t> input(n);
      for (size_t i = 0; i < n; ++i) {
        if (shape == "random") {
          input[i] = rng.Next();
        } else if (shape == "equal") {
          input[i] = 42;
        } else if (shape == "sorted") {
          input[i] = 3 * i;
        } else if (shape == "reversed") {
          input[i] = 3 * (n - i);
        } else {
          input[i] = rng.NextBounded(3);
        }
      }
      std::vector<uint64_t> expected = input;
      std::sort(expected.begin(), expected.end());
      for (const size_t parts : {1, 2, 3, 4, 8}) {
        std::vector<uint64_t> keys = input;
        ParallelSortKeys(keys.data(), keys.size(), parts);
        ASSERT_EQ(keys, expected)
            << shape << " n=" << n << " parts=" << parts;
      }
    }
  }
}

}  // namespace
}  // namespace lsbench
