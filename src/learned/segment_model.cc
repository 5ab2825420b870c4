#include "learned/segment_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.h"

namespace lsbench {

SegmentModel::SegmentModel(uint32_t epsilon) : epsilon_(epsilon) {
  LSBENCH_ASSERT(epsilon_ >= 1);
}

void SegmentModel::Build(const Key* keys, size_t n) {
  Clear();
  ++builds_;
  n_ = n;
  if (n == 0) return;

  const double eps = static_cast<double>(epsilon_);
  size_t start = 0;
  double x0 = static_cast<double>(keys[0]);
  double y0 = 0.0;
  double lo_s = -std::numeric_limits<double>::infinity();
  double hi_s = std::numeric_limits<double>::infinity();
  auto close = [&]() {
    double s;
    if (!std::isfinite(lo_s) && !std::isfinite(hi_s)) {
      s = 0.0;
    } else if (!std::isfinite(lo_s)) {
      s = hi_s;
    } else if (!std::isfinite(hi_s)) {
      s = lo_s;
    } else {
      s = 0.5 * (lo_s + hi_s);
    }
    segments_.push_back({keys[start], x0, y0, s});
  };
  for (size_t i = 1; i < n; ++i) {
    const double dx = static_cast<double>(keys[i]) - x0;
    const double dy = static_cast<double>(i) - y0;
    bool restart = dx <= 0.0;  // Double-precision collapse near 2^64.
    if (!restart) {
      const double lo = (dy - eps) / dx;
      const double hi = (dy + eps) / dx;
      const double nlo = std::max(lo_s, lo);
      const double nhi = std::min(hi_s, hi);
      if (nlo > nhi) {
        restart = true;
      } else {
        lo_s = nlo;
        hi_s = nhi;
      }
    }
    if (restart) {
      close();
      start = i;
      x0 = static_cast<double>(keys[i]);
      y0 = static_cast<double>(i);
      lo_s = -std::numeric_limits<double>::infinity();
      hi_s = std::numeric_limits<double>::infinity();
    }
  }
  close();
}

}  // namespace lsbench
