#ifndef LSBENCH_DATA_DATASET_H_
#define LSBENCH_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/distribution.h"
#include "util/random.h"

namespace lsbench {

/// A generated key set: sorted, de-duplicated 64-bit keys plus provenance.
struct Dataset {
  std::string name;
  std::vector<uint64_t> keys;  ///< Sorted ascending, unique.
  uint64_t domain_max = 0;     ///< Keys were drawn from [0, domain_max).
  uint64_t seed = 0;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  /// Keys normalized into [0, 1) — the representation KS/MMD consume.
  std::vector<double> NormalizedKeys() const;
};

/// Options for dataset generation.
struct DatasetOptions {
  size_t num_keys = 100000;
  uint64_t domain_max = uint64_t{1} << 48;
  uint64_t seed = 42;
};

/// Samples `options.num_keys` distinct keys from `dist` scaled into the key
/// domain. Oversamples internally until enough distinct keys exist, so the
/// result has exactly `num_keys` keys (requires num_keys <= domain_max / 2)
/// unless the distribution is too narrow to yield that many: generation
/// stops after 64 * num_keys + 1024 draws, so a degenerate distribution (a
/// vanishing spread, a huge mean) returns fewer keys instead of spinning.
///
/// The keys are the distinct keys among the draws of one seeded Rng up to
/// the draw that fills `num_keys` (or the cap), byte-identical to inserting
/// draws into a hash set one at a time. They are computed with a sorted
/// vector instead (DistinctSortedDraws): rounds that each draw exactly the
/// keys still missing, sort them and merge them in, while each round at
/// least halves the shortfall; then a tail that draws ahead in chunks,
/// merge-joins each sorted chunk against the kept keys, and cuts it at the
/// draw that fills the target. Each sort is an LSD radix sort split into
/// blocks across the host's hardware threads (ParallelSortKeys), so the
/// keys do not depend on the thread count. Memory is the key vector plus,
/// in the tail, two chunk-sized scratch vectors, plus the sort's scratch of
/// 8 B per key sorted, freed before it returns. So a round holds at most
/// 16 B per key, less than the keys plus an index of at least 16 B per key
/// that a run holds while its SUT loads, and the sort does not set a run's
/// peak. Time is O(d log d) for d draws, at most the cap (the merge-joins;
/// the sorts are linear), so a near-saturated support costs about as much
/// as the hash set did.
///
/// The draws themselves are split the same way: a round or tail chunk of
/// at least 2 * kMinBlockKeys draws is cut into BlockCount blocks, a serial
/// walk of `dist.Skip` records the Rng at each block's start (where no
/// Box–Muller value is pending), and the blocks Sample on joined threads.
/// The walk costs a few ns per draw against tens for a lognormal Sample.
/// Each block must end where the next one starts, or generation aborts, and
/// the Rng continues from the last block's end, so the keys are the serial
/// draw's at every thread count. Memory is one Rng per block.
Dataset GenerateDataset(const UnitDistribution& dist,
                        const DatasetOptions& options);

/// GenerateDataset with its draws split into up to `parts` blocks instead
/// of the host's hardware threads (the sorts still use those). The keys
/// are the same for every `parts`.
Dataset GenerateDataset(const UnitDistribution& dist,
                        const DatasetOptions& options, size_t parts);

/// A sequence of datasets drifting from `from` to `to` in `steps` stages.
/// Stage i samples from Blend(from, to, i/(steps-1)), so stage 0 is pure
/// `from` and the last stage pure `to` — the raw material for the paper's
/// "changing data distributions" requirement.
std::vector<Dataset> GenerateDriftSequence(const UnitDistribution& from,
                                           const UnitDistribution& to,
                                           int steps,
                                           const DatasetOptions& options);

/// Synthesizer for email-address-like string keys — the paper's §V-C example
/// of replacing a sensitive column by a synthetic generator with a similar
/// distribution. Domains follow a Zipf-like popularity; local parts combine
/// pools of first/last names with numeric suffixes.
class EmailGenerator {
 public:
  explicit EmailGenerator(uint64_t seed);

  /// One synthetic address, e.g. "maria.chen91@mailhub.example". Built in
  /// a buffer the generator reuses: the reference is valid until the next
  /// call.
  const std::string& Next();

  /// Order-preserving 64-bit key from the first 8 bytes of the address
  /// (big-endian), so learned indexes can ingest string keys.
  static uint64_t ToKey(const std::string& email);

 private:
  Rng rng_;
  std::vector<double> domain_cdf_;
  std::string address_;
};

/// Generates a Dataset whose keys come from EmailGenerator::ToKey over
/// synthetic addresses: `num_keys` distinct keys, or fewer when the
/// generator's ~4k distinct 8-byte prefixes run out first.
Dataset GenerateEmailDataset(size_t num_keys, uint64_t seed);

}  // namespace lsbench

#endif  // LSBENCH_DATA_DATASET_H_
