#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/distinct_draws.h"
#include "util/random.h"

namespace lsbench {
namespace {

// Every input shape and size sorts to exactly what std::sort gives, at every
// part count. Besides the shapes any sort can get wrong, the set holds the
// ones a radix sort can: keys that differ only in the top byte (the last,
// partial digit), only in the lowest byte over a constant high part, only
// in one middle byte, and keys below 2^48 (the default domain, whose top
// digits are constant). Passes over one varying digit leave the keys in
// the scratch buffer, so they also check the copy back.
TEST(ParallelSortKeysTest, MatchesStdSort) {
  const size_t sizes[] = {0,      1,      2,      1000,           65536,
                          131071, 131072, 131073, 3 * 131072 + 5, 1000000};
  const char* const shapes[] = {"random",   "equal",       "sorted",
                                "reversed", "three",       "top_byte",
                                "low_byte", "middle_byte", "bits48"};
  constexpr uint64_t kHigh = 0x5a3c'96f0'0f69'c3a5ull;
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
        } else if (shape == "three") {
          input[i] = rng.NextBounded(3);
        } else if (shape == "top_byte") {
          input[i] = (rng.Next() << 56) | (kHigh >> 8);
        } else if (shape == "low_byte") {
          input[i] = (kHigh & ~uint64_t{0xff}) | (rng.Next() & 0xff);
        } else if (shape == "middle_byte") {
          input[i] = (kHigh & ~(uint64_t{0xff} << 24)) |
                     ((rng.Next() & 0xff) << 24);
        } else {
          input[i] = rng.Next() >> 16;
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

// At n = parts * kMinBlockKeys the sort runs `parts` blocks of equal size;
// one key fewer runs parts - 1 blocks (at least one), and one key more
// makes the first block one key longer. Those sizes run to millions of keys, so the
// expected output is built sorted, from random gaps that vary every digit,
// and the input is a shuffle of it: no comparison sort is needed.
TEST(ParallelSortKeysTest, SortsAtBlockBoundaries) {
  for (const size_t parts : {1, 2, 3, 4, 8}) {
    for (const size_t n : {parts * kMinBlockKeys - 1, parts * kMinBlockKeys,
                           parts * kMinBlockKeys + 1}) {
      Rng rng(n + parts);
      std::vector<uint64_t> expected(n);
      const uint64_t max_gap = std::numeric_limits<uint64_t>::max() / n;
      uint64_t key = 0;
      for (size_t i = 0; i < n; ++i) {
        key += rng.NextBounded(max_gap);
        expected[i] = key;
      }
      std::vector<uint64_t> keys = expected;
      std::shuffle(keys.begin(), keys.end(), rng);
      ParallelSortKeys(keys.data(), keys.size(), parts);
      ASSERT_EQ(keys, expected) << "n=" << n << " parts=" << parts;
    }
  }
}

}  // namespace
}  // namespace lsbench
