#ifndef LSBENCH_LEARNED_SEGMENT_MODEL_H_
#define LSBENCH_LEARNED_SEGMENT_MODEL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "index/kv_index.h"

namespace lsbench {

/// Reusable epsilon-bounded piecewise-linear position model over a sorted
/// key array (the PGM building block, extracted): Build fits segments with
/// the shrinking-cone algorithm; WindowFor returns a position window of
/// width <= 2*epsilon+1 guaranteed to contain the position of any key that
/// IS in the fitted array. For absent keys the window may miss the lower
/// bound (predictions extrapolate inside a segment's key gap), so this
/// model supports membership-style probes, not general lower-bound
/// queries — exactly what point reads need.
/// Segments predict relative to their own origin, which keeps the epsilon
/// guarantee intact for keys near 2^64 where absolute slope*key+intercept
/// arithmetic loses whole positions. Consumer: the learned-run LSM mode
/// (Bourbon-style).
class SegmentModel {
 public:
  SegmentModel() = default;

  /// Fits over `n` sorted unique keys with the given error bound
  /// (epsilon >= 1). Replaces any previous fit.
  void Build(const Key* keys, size_t n, uint32_t epsilon);

  /// [lo, hi) window within the fitted array; contains the key's position
  /// whenever the key is present. Requires a prior Build with n > 0.
  std::pair<size_t, size_t> WindowFor(Key key) const;

  bool empty() const { return n_ == 0; }
  size_t size() const { return n_; }
  size_t segment_count() const { return segments_.size(); }
  uint32_t epsilon() const { return epsilon_; }
  size_t MemoryBytes() const { return segments_.size() * sizeof(Segment); }

 private:
  struct Segment {
    Key first_key;
    double x0;
    double y0;
    double slope;
  };

  std::vector<Segment> segments_;
  size_t n_ = 0;
  uint32_t epsilon_ = 1;
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_SEGMENT_MODEL_H_
