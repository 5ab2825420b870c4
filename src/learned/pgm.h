#ifndef LSBENCH_LEARNED_PGM_H_
#define LSBENCH_LEARNED_PGM_H_

#include <cstdint>
#include <string>

#include "learned/segment_model.h"
#include "learned/sorted_learned_index.h"

namespace lsbench {

/// Piecewise Geometric Model index (Ferragina & Vinciguerra style): a greedy
/// shrinking-cone pass (SegmentModel) builds the minimal set of linear
/// segments such that every key's predicted position is within `epsilon`
/// of its true position. Lookups binary-search the segment directory, then
/// search a 2*epsilon+1 window. Writes go to a delta buffer until Retrain().
class PgmIndex final : public SortedLearnedIndex<SegmentModel> {
 public:
  /// `epsilon` >= 1: the guaranteed maximum position error per segment.
  explicit PgmIndex(uint32_t epsilon = 64)
      : SortedLearnedIndex(SegmentModel(epsilon)) {}

  std::string name() const override { return "pgm"; }
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_PGM_H_
