#ifndef LSBENCH_DATA_DISTINCT_DRAWS_H_
#define LSBENCH_DATA_DISTINCT_DRAWS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <system_error>
#include <thread>
#include <vector>

namespace lsbench {

/// Writes the next `count` draws of a key stream to `out[0, count)`. Draw i
/// of the stream must not depend on how the stream is split into calls.
using KeyDrawFn = std::function<void(uint64_t* out, size_t count)>;

/// The distinct keys a hash set would hold if it took `draw`'s keys one at
/// a time until it held `target` keys or `max_draws` draws had been made,
/// sorted ascending — computed with a sorted vector instead of the hash
/// set, byte-identical to it.
///
/// Rounds: round 1 draws exactly `target` keys, then sorts and
/// de-duplicates them; each later round draws exactly the keys still
/// missing into a scratch vector, sorts them, drops those already kept
/// (galloping through the kept keys), and merges the rest in place,
/// backward from the end, so kept keys below the smallest new key never
/// move. A round that draws exactly the shortfall
/// cannot pass the hash-set loop's stopping draw: the distinct count can
/// reach `target` only on that round's last draw. Rounds continue while
/// each at least halves the shortfall.
///
/// Tail: once collisions stall the rounds, the same loop draws chunks of
/// max(shortfall, kept keys) keys. A chunk longer than the shortfall is
/// sorted into a copy and merge-joined against the kept keys to find its
/// new keys; if it holds more new keys than the shortfall, it is walked in
/// draw order and cut at the draw that fills the target, and only new keys
/// drawn up to that cut are kept. Drawing past the cut is harmless because
/// callers own the stream (a call-local Rng) and only the keys leave the
/// call.
///
/// Cost: every tail chunk is at least as long as the kept set, so the
/// merge-join costs O(log) per draw and the sort O(1), and at most
/// `max_draws` draws are made: O(max_draws log max_draws) time, plus the
/// draws themselves, which `draw` may split across threads (GenerateDataset
/// does, for a call of at least 2 * kMinBlockKeys draws). Both sorts (a
/// round's draws, a tail chunk's copy) are ParallelSortKeys over the host's
/// hardware threads, and the keys do not depend on the thread count. Memory
/// is the key vector plus a later round's draws, or in the tail two
/// chunk-sized scratch vectors (the chunk in draw order and its sorted new
/// keys), plus the sort's 8 B per key while it runs, where the hash set
/// needed a node per key.
///
/// GenerateEmailDataset does not use this: its stagnation stop is decided
/// per attempt (a run of attempts with no new key), which rounds of draws
/// cannot see.
std::vector<uint64_t> DistinctSortedDraws(size_t target, size_t max_draws,
                                          const KeyDrawFn& draw);

/// Fewest keys ParallelSortKeys gives a block, and so a thread, of its own.
/// Of 2^14 to 2^20, this was fastest or tied on a 4-core host: 262,144
/// keys sorted no faster on four threads than on one, while 1M keys
/// generated in about 30 ms on three blocks against about 50 ms on one.
inline constexpr size_t kMinBlockKeys = size_t{1} << 18;

/// The host's hardware threads, at least 1: the `parts` that dataset
/// generation splits its draws and sorts into. A fact of the host, not a
/// setting: the keys do not depend on it.
size_t HardwareParts();

/// How many blocks `n` keys split into on up to `parts` threads:
/// min(parts, n / kMinBlockKeys), at least one.
inline size_t BlockCount(size_t n, size_t parts) {
  return std::clamp(n / kMinBlockKeys, size_t{1}, std::max(parts, size_t{1}));
}

/// Runs body(b) for every block b < blocks: block 0 on the calling thread,
/// the others on threads joined before this returns (lsbench-lint:
/// no-detached-thread). A block whose thread fails to start runs on the
/// calling thread instead. The bodies must not throw, so nothing can throw
/// between a thread's start and its join.
template <typename Body>
void ForEachBlock(size_t blocks, const Body& body) {
  std::vector<std::thread> threads;
  threads.reserve(blocks - 1);
  for (size_t b = 1; b < blocks; ++b) {
    try {
      threads.emplace_back(std::cref(body), b);
    } catch (const std::system_error&) {
      body(b);
    }
  }
  body(0);
  for (std::thread& thread : threads) thread.join();
}

/// Sorts `keys[0, n)` ascending, like std::sort, on up to `parts` threads,
/// with an LSD radix sort. One pass ORs `key ^ keys[0]` over the range to
/// find the digits that vary; each varying digit then takes a counting pass
/// and a stable scatter pass, and a constant digit takes none (the top
/// 16 bits of keys below 2^48, say). Both passes split the range into
/// BlockCount(n, parts) blocks of near-equal size, each with its own
/// counts, run by ForEachBlock. The scatter writes into a
/// scratch buffer of n keys, 8 B per key, allocated without a zero fill
/// and freed before return. Since a sort has one output, the result is the
/// same for every `parts`.
void ParallelSortKeys(uint64_t* keys, size_t n, size_t parts);

}  // namespace lsbench

#endif  // LSBENCH_DATA_DISTINCT_DRAWS_H_
