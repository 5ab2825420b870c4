#include "learned/pgm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.h"

namespace lsbench {

PgmIndex::PgmIndex(uint32_t epsilon) : epsilon_(epsilon) {
  LSBENCH_ASSERT(epsilon_ >= 1);
}

void PgmIndex::Fit() {
  segments_.clear();
  const size_t n = keys_.size();
  if (n == 0) return;

  const double eps = static_cast<double>(epsilon_);
  size_t start = 0;
  double x0 = static_cast<double>(keys_[0]);
  double y0 = 0.0;
  double slope_lo = -std::numeric_limits<double>::infinity();
  double slope_hi = std::numeric_limits<double>::infinity();

  auto close_segment = [&](size_t seg_start) {
    Segment seg;
    seg.first_key = keys_[seg_start];
    seg.x0 = x0;
    seg.y0 = y0;
    if (!std::isfinite(slope_lo) && !std::isfinite(slope_hi)) {
      seg.slope = 0.0;  // Single-point segment.
    } else if (!std::isfinite(slope_lo)) {
      seg.slope = slope_hi;
    } else if (!std::isfinite(slope_hi)) {
      seg.slope = slope_lo;
    } else {
      seg.slope = 0.5 * (slope_lo + slope_hi);
    }
    segments_.push_back(seg);
  };

  for (size_t i = 1; i < n; ++i) {
    const double dx = static_cast<double>(keys_[i]) - x0;
    const double dy = static_cast<double>(i) - y0;
    if (dx <= 0.0) {
      // Adjacent keys can collapse to the same double near 2^63 (the ULP
      // there is 2048); the cone cannot absorb a vertical step, so start a
      // fresh segment at this key. Segment lookup compares exact integer
      // keys, so correctness is unaffected.
      close_segment(start);
      start = i;
      x0 = static_cast<double>(keys_[i]);
      y0 = static_cast<double>(i);
      slope_lo = -std::numeric_limits<double>::infinity();
      slope_hi = std::numeric_limits<double>::infinity();
      continue;
    }
    const double lo = (dy - eps) / dx;
    const double hi = (dy + eps) / dx;
    const double new_lo = std::max(slope_lo, lo);
    const double new_hi = std::min(slope_hi, hi);
    if (new_lo > new_hi) {
      close_segment(start);
      start = i;
      x0 = static_cast<double>(keys_[i]);
      y0 = static_cast<double>(i);
      slope_lo = -std::numeric_limits<double>::infinity();
      slope_hi = std::numeric_limits<double>::infinity();
    } else {
      slope_lo = new_lo;
      slope_hi = new_hi;
    }
  }
  close_segment(start);
}

size_t PgmIndex::FindStatic(Key key) const {
  const size_t n = keys_.size();
  if (n == 0) return 0;
  // Locate the owning segment: last segment with first_key <= key.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), key,
      [](Key k, const Segment& s) { return k < s.first_key; });
  const size_t seg_idx =
      it == segments_.begin() ? 0 : (it - segments_.begin()) - 1;
  const Segment& seg = segments_[seg_idx];
  const double pred_real =
      seg.slope * (static_cast<double>(key) - seg.x0) + seg.y0;
  size_t pred;
  if (pred_real <= 0.0) {
    pred = 0;
  } else if (pred_real >= static_cast<double>(n - 1)) {
    pred = n - 1;
  } else {
    pred = static_cast<size_t>(pred_real);
  }
  const size_t lo = pred > epsilon_ ? pred - epsilon_ : 0;
  const size_t hi = std::min(n, pred + epsilon_ + 1);
  const auto begin = keys_.begin() + lo;
  const auto end = keys_.begin() + hi;
  const auto pos = std::lower_bound(begin, end, key);
  if (pos != end && *pos == key) return pos - keys_.begin();
  return n;
}

std::optional<Value> PgmIndex::Get(Key key) const {
  if (delta_.empty()) {
    const size_t pos = FindStatic(key);
    if (pos >= keys_.size()) return std::nullopt;
    return values_[pos];
  }
  Value v = 0;
  switch (delta_.Lookup(key, &v)) {
    case DeltaBuffer::Presence::kLive:
      return v;
    case DeltaBuffer::Presence::kTombstone:
      return std::nullopt;
    case DeltaBuffer::Presence::kAbsent:
      break;
  }
  const size_t pos = FindStatic(key);
  if (pos >= keys_.size()) return std::nullopt;
  return values_[pos];
}

bool PgmIndex::Insert(Key key, Value value) {
  Value unused = 0;
  const auto presence = delta_.Lookup(key, &unused);
  const bool existed =
      presence == DeltaBuffer::Presence::kLive ||
      (presence == DeltaBuffer::Presence::kAbsent && StaticContains(key));
  delta_.Put(key, value);
  if (!existed) ++live_count_;
  return !existed;
}

bool PgmIndex::Erase(Key key) {
  Value unused = 0;
  const auto presence = delta_.Lookup(key, &unused);
  if (presence == DeltaBuffer::Presence::kTombstone) return false;
  if (presence == DeltaBuffer::Presence::kLive) {
    delta_.Delete(key);
    --live_count_;
    return true;
  }
  if (StaticContains(key)) {
    delta_.Delete(key);
    --live_count_;
    return true;
  }
  return false;
}

size_t PgmIndex::Scan(Key from, size_t limit,
                      std::vector<KeyValue>* out) const {
  return delta_.MergeScan(keys_, values_, from, limit, out);
}

size_t PgmIndex::MemoryBytes() const {
  return keys_.size() * (sizeof(Key) + sizeof(Value)) +
         segments_.size() * sizeof(Segment) + delta_.MemoryBytes();
}

template <typename View>
void PgmIndex::BulkLoadFrom(const View& view) {
  const size_t n = view.size();
  keys_.clear();
  values_.clear();
  keys_.reserve(n);
  values_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Key k = view.key(i);
    LSBENCH_ASSERT_MSG(keys_.empty() || keys_.back() < k,
                       "BulkLoad requires strictly ascending keys");
    keys_.push_back(k);
    values_.push_back(view.value(i));
  }
  delta_.Clear();
  live_count_ = keys_.size();
  Fit();
}

void PgmIndex::BulkLoad(const std::vector<KeyValue>& sorted_pairs) {
  BulkLoadFrom(SortedPairsView{&sorted_pairs});
}

void PgmIndex::BulkLoadKeys(std::span<const Key> sorted_keys,
                           Value first_value) {
  BulkLoadFrom(SortedKeysView{sorted_keys, first_value});
}

size_t PgmIndex::Retrain() {
  delta_.MergeInto(&keys_, &values_);
  live_count_ = keys_.size();
  Fit();
  return keys_.size();
}

}  // namespace lsbench
