#ifndef LSBENCH_DATA_DISTINCT_DRAWS_H_
#define LSBENCH_DATA_DISTINCT_DRAWS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
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
/// missing and merges them in. A round that draws exactly the shortfall
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
/// merge-join and sort cost O(log) per draw, and at most `max_draws` draws
/// are made: O(max_draws log max_draws) time. Both sorts (a round's draws,
/// a tail chunk's copy) are ParallelSortKeys over the host's hardware
/// threads, split in place, so they add no memory and the keys do not
/// depend on the thread count. Memory is the key vector plus, in the tail,
/// two chunk-sized scratch vectors (the chunk in draw order and its sorted
/// new keys), where the hash set needed a node per key.
///
/// GenerateEmailDataset does not use this: its stagnation stop is decided
/// per attempt (a run of attempts with no new key), which rounds of draws
/// cannot see.
std::vector<uint64_t> DistinctSortedDraws(size_t target, size_t max_draws,
                                          const KeyDrawFn& draw);

/// Smallest half ParallelSortKeys hands to a thread of its own.
inline constexpr size_t kMinPartKeys = size_t{1} << 16;

/// Sorts `keys[0, n)` ascending, like std::sort, on up to `parts` threads.
/// While `parts > 1` and both halves would hold at least kMinPartKeys keys,
/// std::nth_element splits the range in place at its middle, and the two
/// halves are sorted at once: the lower on a new, joined thread with half
/// the parts, the upper on the calling thread with the rest. Each part left
/// is a plain std::sort. There is no merge step and no scratch buffer, and
/// since a sort has one output the result is the same for every `parts`.
void ParallelSortKeys(uint64_t* keys, size_t n, size_t parts);

}  // namespace lsbench

#endif  // LSBENCH_DATA_DISTINCT_DRAWS_H_
