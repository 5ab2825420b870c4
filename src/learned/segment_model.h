#ifndef LSBENCH_LEARNED_SEGMENT_MODEL_H_
#define LSBENCH_LEARNED_SEGMENT_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "index/kv_index.h"
#include "util/assert.h"

namespace lsbench {

/// Reusable epsilon-bounded piecewise-linear position model over a sorted
/// key array (the PGM building block): Build fits segments with the
/// shrinking-cone algorithm; WindowFor returns a position window of width
/// <= 2*epsilon+1 guaranteed to contain the position of any key that IS in
/// the fitted array. For absent keys the window may miss the lower bound
/// (predictions extrapolate inside a segment's key gap), so this model
/// supports membership-style probes, not general lower-bound queries —
/// exactly what point reads need.
/// Segments predict relative to their own origin, which keeps the epsilon
/// guarantee intact for keys near 2^64 where absolute slope*key+intercept
/// arithmetic loses whole positions. Consumers: PgmIndex (learned/pgm.h),
/// whose whole model it is, and the learned-run LSM mode (Bourbon-style).
/// WindowFor is inline so both consumers' lookups inline it.
class SegmentModel {
 public:
  /// `epsilon` >= 1: the guaranteed maximum position error per segment.
  explicit SegmentModel(uint32_t epsilon);

  /// Fits over `n` sorted unique keys. Replaces any previous fit.
  void Build(const Key* keys, size_t n);
  /// Drops the fit, as a Build over no keys would, without counting a
  /// Build.
  void Clear() {
    segments_.clear();
    n_ = 0;
  }

  /// [lo, hi) window within the fitted array; contains the key's position
  /// whenever the key is present. Requires a prior Build with n > 0.
  std::pair<size_t, size_t> WindowFor(Key key) const {
    LSBENCH_ASSERT(n_ > 0);
    // The owning segment: the last one with first_key <= key.
    const auto it = std::upper_bound(
        segments_.begin(), segments_.end(), key,
        [](Key k, const Segment& s) { return k < s.first_key; });
    const size_t idx =
        it == segments_.begin() ? 0 : (it - segments_.begin()) - 1;
    const Segment& seg = segments_[idx];
    const double pred_real =
        seg.slope * (static_cast<double>(key) - seg.x0) + seg.y0;
    size_t pred;
    if (pred_real <= 0.0) {
      pred = 0;
    } else if (pred_real >= static_cast<double>(n_ - 1)) {
      pred = n_ - 1;
    } else {
      pred = static_cast<size_t>(pred_real);
    }
    const size_t lo = pred > epsilon_ ? pred - epsilon_ : 0;
    const size_t hi = std::min(n_, pred + epsilon_ + 1);
    return {lo, hi};
  }

  bool empty() const { return n_ == 0; }
  size_t segment_count() const { return segments_.size(); }
  size_t MemoryBytes() const { return segments_.size() * sizeof(Segment); }
  /// What SutStats reports for PGM as model_error: the segment count.
  double model_error() const { return static_cast<double>(segments_.size()); }
  /// The shrinking cone visits every key, so a fit's work is its key count.
  size_t fit_work() const { return n_; }
  /// Build calls since construction.
  size_t builds() const { return builds_; }

 private:
  /// Piecewise-linear segment anchored at its own origin: position(key) =
  /// slope * (key - x0) + y0.
  struct Segment {
    Key first_key;
    double x0;     // double(first_key).
    double y0;     // Position of first_key.
    double slope;
  };

  std::vector<Segment> segments_;
  size_t n_ = 0;
  uint32_t epsilon_;
  size_t builds_ = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_SEGMENT_MODEL_H_
