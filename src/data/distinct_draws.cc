#include "data/distinct_draws.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "util/fan_out.h"

namespace lsbench {

namespace {

// Bits per radix digit. Twelve sort a key of the default 2^48 domain in four
// passes, and one block's 4096 counts fit in L1. Of 8, 10, 11, 12 and 16
// bits, twelve was fastest or tied from 64K to 14M lognormal keys.
constexpr int kDigitBits = 12;
constexpr size_t kRadix = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kRadix - 1;

// Moves to the front of `round[0, n)`, sorted, each of its keys that is
// not in `kept` (sorted, unique), once, and returns their count. Each key
// gallops up from the previous one's place in `kept`, so c keys cost
// O(c log(|kept| / c)) probes rather than a pass over `kept`.
size_t KeepNewKeys(const std::vector<uint64_t>& kept, uint64_t* round,
                   size_t n) {
  size_t out = 0;
  size_t k = 0;  // Every kept key before k is below the current key.
  for (size_t j = 0; j < n; ++j) {
    const uint64_t key = round[j];
    if (out > 0 && round[out - 1] == key) continue;
    for (size_t step = 1; k < kept.size() && kept[k] < key; step *= 2) {
      const size_t hi = std::min(k + step, kept.size());
      if (kept[hi - 1] < key) {
        k = hi;
        continue;
      }
      k = static_cast<size_t>(
          std::lower_bound(kept.begin() + static_cast<std::ptrdiff_t>(k),
                           kept.begin() + static_cast<std::ptrdiff_t>(hi),
                           key) -
          kept.begin());
      break;
    }
    if (k == kept.size() || kept[k] != key) round[out++] = key;
  }
  return out;
}

// Merges `fresh` (sorted, none of its keys in `keys`) into `keys` (sorted)
// in place, backward from the end: each new key, largest first, gallops
// down to its place, and the kept keys above it move up in one block. The
// pass stops at the smallest new key, so the keys below it never move.
void MergeNewKeys(const std::vector<uint64_t>& fresh,
                  std::vector<uint64_t>* keys) {
  size_t a = keys->size();  // Kept keys not yet moved: out[0, a).
  size_t b = fresh.size();  // New keys not yet placed: fresh[0, b).
  keys->resize(a + b);
  uint64_t* out = keys->data();
  while (b > 0) {
    const uint64_t key = fresh[--b];
    size_t pos = a;  // out[pos, a) are the kept keys above `key`.
    for (size_t step = 1; pos > 0 && out[pos - 1] > key; step *= 2) {
      const size_t lo = pos > step ? pos - step : 0;
      if (out[lo] > key) {
        pos = lo;
        continue;
      }
      pos = static_cast<size_t>(std::upper_bound(out + lo, out + pos, key) -
                                out);
      break;
    }
    std::copy_backward(out + pos, out + a, out + a + b + 1);
    a = pos;
    out[a + b] = key;
  }
}

}  // namespace

size_t HardwareParts() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ParallelSortKeys(uint64_t* keys, size_t n, size_t parts) {
  uint64_t varying = 0;  // The bits on which some key differs from keys[0].
  for (size_t i = 0; i < n; ++i) varying |= keys[i] ^ keys[0];
  if (varying == 0) return;

  const size_t blocks = BlockCount(n, parts);
  const size_t block_keys = n / blocks;
  const size_t longer_blocks = n % blocks;  // These hold one key more.
  const auto block_begin = [block_keys, longer_blocks](size_t b) {
    return b * block_keys + std::min(b, longer_blocks);
  };
  // offsets[b * kRadix + d]: where block b writes its next key of digit d.
  std::vector<size_t> offsets(blocks * kRadix);
  auto scratch = std::make_unique_for_overwrite<uint64_t[]>(n);
  uint64_t* from = keys;
  uint64_t* to = scratch.get();
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((varying >> shift) & kDigitMask) == 0) continue;
    ForEachBlock(blocks, [&](size_t b) {
      size_t* const count = offsets.data() + b * kRadix;
      std::fill(count, count + kRadix, size_t{0});
      const uint64_t* const end = from + block_begin(b + 1);
      for (const uint64_t* key = from + block_begin(b); key != end; ++key) {
        ++count[(*key >> shift) & kDigitMask];
      }
    });
    // Digit by digit, then block by block: a key lands after every key of
    // a smaller digit and after its digit's keys from earlier blocks, which
    // keeps the pass stable.
    size_t next = 0;
    for (size_t d = 0; d < kRadix; ++d) {
      for (size_t b = 0; b < blocks; ++b) {
        const size_t count = offsets[b * kRadix + d];
        offsets[b * kRadix + d] = next;
        next += count;
      }
    }
    ForEachBlock(blocks, [&](size_t b) {
      size_t* const offset = offsets.data() + b * kRadix;
      const uint64_t* const end = from + block_begin(b + 1);
      for (const uint64_t* key = from + block_begin(b); key != end; ++key) {
        to[offset[(*key >> shift) & kDigitMask]++] = *key;
      }
    });
    std::swap(from, to);
  }
  if (from != keys) std::copy(from, from + n, keys);
}

std::vector<uint64_t> DistinctSortedDraws(size_t target, size_t max_draws,
                                          const KeyDrawFn& draw) {
  std::vector<uint64_t> keys;
  keys.reserve(target);
  std::vector<uint64_t> chunk;  // A long chunk, in draw order.
  std::vector<uint64_t> fresh;  // A round's keys not kept yet, sorted.
  std::vector<char> first_drawn;
  const size_t parts = HardwareParts();
  size_t draws = 0;
  size_t need = target;
  bool halving = true;
  while (need > 0 && draws < max_draws) {
    // Draw exactly the shortfall while each round at least halves it, then
    // draw ahead: at least as many keys as are kept.
    const size_t count = std::min(halving ? need : std::max(need, keys.size()),
                                  max_draws - draws);
    draws += count;
    if (keys.empty()) {
      // The first round is drawn, sorted and de-duplicated in the key
      // vector itself.
      keys.resize(count);
      draw(keys.data(), count);
      ParallelSortKeys(keys.data(), count, parts);
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    } else if (count <= need) {
      // A chunk no longer than the shortfall cannot pass the draw that
      // fills the target, so all its new keys are kept.
      fresh.resize(count);
      draw(fresh.data(), count);
      ParallelSortKeys(fresh.data(), count, parts);
      fresh.resize(KeepNewKeys(keys, fresh.data(), count));
    } else {
      chunk.resize(count);
      draw(chunk.data(), count);
      fresh.assign(chunk.begin(), chunk.end());
      ParallelSortKeys(fresh.data(), fresh.size(), parts);
      fresh.resize(KeepNewKeys(keys, fresh.data(), fresh.size()));

      if (fresh.size() > need) {
        // Cut at the draw that fills the target: keep the new keys first
        // drawn no later than the need-th one.
        first_drawn.assign(fresh.size(), 0);
        for (size_t i = 0, found = 0; found < need; ++i) {
          const auto it =
              std::lower_bound(fresh.begin(), fresh.end(), chunk[i]);
          if (it == fresh.end() || *it != chunk[i]) continue;
          char& drawn = first_drawn[static_cast<size_t>(it - fresh.begin())];
          if (drawn == 0) {
            drawn = 1;
            ++found;
          }
        }
        size_t kept = 0;
        for (size_t j = 0; j < fresh.size(); ++j) {
          if (first_drawn[j] != 0) fresh[kept++] = fresh[j];
        }
        fresh.resize(kept);
      }
    }
    MergeNewKeys(fresh, &keys);  // A no-op on the first round: no `fresh`.
    const size_t prev_need = need;
    need = target - keys.size();
    halving = halving && 2 * need <= prev_need;
  }
  return keys;
}

}  // namespace lsbench
