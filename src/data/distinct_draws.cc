#include "data/distinct_draws.h"

#include <algorithm>
#include <system_error>
#include <thread>

namespace lsbench {

void ParallelSortKeys(uint64_t* keys, size_t n, size_t parts) {
  const size_t low_n = n / 2;
  if (parts < 2 || low_n < kMinPartKeys) {
    std::sort(keys, keys + n);
    return;
  }
  uint64_t* const mid = keys + low_n;
  std::nth_element(keys, mid, keys + n);
  const size_t low_parts = parts / 2;
  // Joined below, before the caller can see the keys (lsbench-lint:
  // no-detached-thread). Every level catches its own failure to start a
  // thread, so nothing can throw between the start and the join.
  std::thread low;
  try {
    low = std::thread(ParallelSortKeys, keys, low_n, low_parts);
  } catch (const std::system_error&) {
    std::sort(keys, mid);
  }
  ParallelSortKeys(mid, n - low_n, parts - low_parts);
  if (low.joinable()) low.join();
}

std::vector<uint64_t> DistinctSortedDraws(size_t target, size_t max_draws,
                                          const KeyDrawFn& draw) {
  std::vector<uint64_t> keys;
  keys.reserve(target);
  std::vector<uint64_t> chunk;  // A long chunk, in draw order.
  std::vector<uint64_t> fresh;  // Its keys not kept yet, sorted.
  std::vector<char> first_drawn;
  // A fact of the host, not a setting: the keys do not depend on it.
  const size_t parts = std::max(1u, std::thread::hardware_concurrency());
  size_t draws = 0;
  size_t need = target;
  bool halving = true;
  while (need > 0 && draws < max_draws) {
    // Draw exactly the shortfall while each round at least halves it, then
    // draw ahead: at least as many keys as are kept.
    const size_t count = std::min(halving ? need : std::max(need, keys.size()),
                                  max_draws - draws);
    draws += count;
    const size_t old_size = keys.size();
    if (count <= need) {
      // A chunk no longer than the shortfall cannot pass the draw that
      // fills the target, so it is drawn straight into the key vector.
      keys.resize(old_size + count);
      draw(keys.data() + old_size, count);
      ParallelSortKeys(keys.data() + old_size, count, parts);
    } else {
      chunk.resize(count);
      draw(chunk.data(), count);
      fresh.assign(chunk.begin(), chunk.end());
      ParallelSortKeys(fresh.data(), fresh.size(), parts);
      // Merge-join against the kept keys, keeping each new key once.
      size_t kept = 0;
      auto k = keys.begin();
      for (size_t j = 0; j < fresh.size(); ++j) {
        const uint64_t key = fresh[j];
        if (kept > 0 && fresh[kept - 1] == key) continue;
        while (k != keys.end() && *k < key) ++k;
        if (k == keys.end() || *k != key) fresh[kept++] = key;
      }
      fresh.resize(kept);

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
        kept = 0;
        for (size_t j = 0; j < fresh.size(); ++j) {
          if (first_drawn[j] != 0) fresh[kept++] = fresh[j];
        }
        fresh.resize(kept);
      }
      keys.insert(keys.end(), fresh.begin(), fresh.end());
    }
    std::inplace_merge(keys.begin(),
                       keys.begin() + static_cast<std::ptrdiff_t>(old_size),
                       keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const size_t prev_need = need;
    need = target - keys.size();
    halving = halving && 2 * need <= prev_need;
  }
  return keys;
}

}  // namespace lsbench
