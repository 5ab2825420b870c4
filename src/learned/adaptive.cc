#include "learned/adaptive.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace lsbench {

namespace {
constexpr size_t kNpos = static_cast<size_t>(-1);
constexpr size_t kMinSlots = 8;
constexpr uint64_t kDisplacementWindow = 256;
}  // namespace

AdaptiveLearnedIndex::AdaptiveLearnedIndex(AdaptiveOptions options)
    : options_(options) {
  LSBENCH_ASSERT(options_.max_segment_entries >= 16);
  LSBENCH_ASSERT(options_.expansion_factor > 1.0);
}

AdaptiveLearnedIndex::Segment AdaptiveLearnedIndex::MakeSegment(
    const std::vector<KeyValue>& pairs, Key first_key) const {
  Segment seg;
  seg.first_key = first_key;
  const size_t n = pairs.size();
  const size_t slots = std::max(
      kMinSlots,
      static_cast<size_t>(std::ceil(static_cast<double>(n) *
                                    options_.expansion_factor)));
  seg.slot_keys.assign(slots, 0);
  seg.slot_values.assign(slots, 0);
  seg.occupied.assign(slots, false);
  seg.live = n;
  if (n == 0) return seg;

  // Spread entries evenly across the slots and fit the model to the actual
  // placement, so fresh segments predict perfectly.
  LinearFitSums fit;
  for (size_t i = 0; i < n; ++i) {
    const size_t slot =
        n == 1 ? 0
               : (i * (slots - 1)) / (n - 1);
    seg.slot_keys[slot] = pairs[i].first;
    seg.slot_values[slot] = pairs[i].second;
    seg.occupied[slot] = true;
    fit.Add(static_cast<double>(pairs[i].first), static_cast<double>(slot));
  }
  seg.model = fit.Fit();
  return seg;
}

size_t AdaptiveLearnedIndex::SegmentFor(Key key) const {
  LSBENCH_ASSERT(!segments_.empty());
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), key,
      [](Key k, const Segment& s) { return k < s.first_key; });
  if (it == segments_.begin()) return 0;
  return static_cast<size_t>(it - segments_.begin()) - 1;
}

size_t AdaptiveLearnedIndex::FindSlot(const Segment& seg, Key key) const {
  const size_t slots = seg.slot_keys.size();
  if (seg.live == 0) return slots;
  const size_t hint = seg.model.PredictClamped(static_cast<double>(key), slots);

  // Find the nearest occupied anchor around the hint.
  size_t anchor = kNpos;
  for (size_t d = 0; d < slots; ++d) {
    if (hint + d < slots && seg.occupied[hint + d]) {
      anchor = hint + d;
      break;
    }
    if (d > 0 && hint >= d && seg.occupied[hint - d]) {
      anchor = hint - d;
      break;
    }
  }
  if (anchor == kNpos) return slots;

  // Walk toward the key through occupied slots.
  size_t pos = anchor;
  if (seg.slot_keys[pos] < key) {
    size_t i = pos + 1;
    while (i < slots) {
      if (seg.occupied[i]) {
        if (seg.slot_keys[i] >= key) {
          return seg.slot_keys[i] == key ? i : slots;
        }
      }
      ++i;
    }
    return slots;
  }
  // anchor key >= target: walk left while occupied keys remain >= target.
  size_t best = seg.slot_keys[pos] == key ? pos : kNpos;
  size_t i = pos;
  while (i > 0) {
    --i;
    if (!seg.occupied[i]) continue;
    if (seg.slot_keys[i] < key) break;
    if (seg.slot_keys[i] == key) best = i;
  }
  return best == kNpos ? slots : best;
}

std::optional<Value> AdaptiveLearnedIndex::Get(Key key) const {
  if (segments_.empty()) return std::nullopt;
  const Segment& seg = segments_[SegmentFor(key)];
  const size_t slot = FindSlot(seg, key);
  if (slot >= seg.slot_keys.size()) return std::nullopt;
  return seg.slot_values[slot];
}

std::vector<KeyValue> AdaptiveLearnedIndex::ExtractLive(const Segment& seg) {
  std::vector<KeyValue> pairs;
  pairs.reserve(seg.live);
  for (size_t i = 0; i < seg.slot_keys.size(); ++i) {
    if (seg.occupied[i]) pairs.emplace_back(seg.slot_keys[i], seg.slot_values[i]);
  }
  return pairs;
}

void AdaptiveLearnedIndex::RebuildSegment(Segment* seg) {
  const std::vector<KeyValue> pairs = ExtractLive(*seg);
  const Key first_key = seg->first_key;
  *seg = MakeSegment(pairs, first_key);
  ++retrain_count_;
  retrain_work_ += pairs.size();
}

void AdaptiveLearnedIndex::SplitSegment(size_t seg_idx) {
  const std::vector<KeyValue> pairs = ExtractLive(segments_[seg_idx]);
  LSBENCH_ASSERT(pairs.size() >= 2);
  const size_t mid = pairs.size() / 2;
  const std::vector<KeyValue> left(pairs.begin(), pairs.begin() + mid);
  const std::vector<KeyValue> right(pairs.begin() + mid, pairs.end());
  const Key left_first = segments_[seg_idx].first_key;
  const Key right_first = right.front().first;
  segments_[seg_idx] = MakeSegment(left, left_first);
  segments_.insert(segments_.begin() + seg_idx + 1,
                   MakeSegment(right, right_first));
  ++retrain_count_;
  retrain_work_ += pairs.size();
}

bool AdaptiveLearnedIndex::Insert(Key key, Value value) {
  if (segments_.empty()) {
    segments_.push_back(MakeSegment({{key, value}}, 0));
    size_ = 1;
    return true;
  }
  const size_t seg_idx = SegmentFor(key);
  Segment& seg = segments_[seg_idx];
  const size_t slots = seg.slot_keys.size();

  const size_t existing = FindSlot(seg, key);
  if (existing < slots) {
    seg.slot_values[existing] = value;
    return false;
  }

  // Locate the ordered neighborhood: L = last occupied slot with key <
  // target, R = first occupied slot with key > target.
  size_t left_bound = kNpos;   // Occupied slot with greatest key < target.
  size_t right_bound = slots;  // Occupied slot with least key > target.
  {
    const size_t hint =
        seg.model.PredictClamped(static_cast<double>(key), slots);
    // Anchor search as in FindSlot.
    size_t anchor = kNpos;
    for (size_t d = 0; d < slots; ++d) {
      if (hint + d < slots && seg.occupied[hint + d]) {
        anchor = hint + d;
        break;
      }
      if (d > 0 && hint >= d && seg.occupied[hint - d]) {
        anchor = hint - d;
        break;
      }
    }
    if (anchor == kNpos) {
      // Empty segment: place at the hint.
      seg.slot_keys[hint] = key;
      seg.slot_values[hint] = value;
      seg.occupied[hint] = true;
      seg.live = 1;
      ++size_;
      return true;
    }
    if (seg.slot_keys[anchor] < key) {
      left_bound = anchor;
      for (size_t i = anchor + 1; i < slots; ++i) {
        if (!seg.occupied[i]) continue;
        if (seg.slot_keys[i] < key) {
          left_bound = i;
        } else {
          right_bound = i;
          break;
        }
      }
    } else {
      right_bound = anchor;
      for (size_t i = anchor; i > 0;) {
        --i;
        if (!seg.occupied[i]) continue;
        if (seg.slot_keys[i] > key) {
          right_bound = i;
        } else {
          left_bound = i;
          break;
        }
      }
    }

    const size_t lo = left_bound == kNpos ? 0 : left_bound + 1;
    const size_t hi = right_bound;  // Exclusive upper bound for placement.
    if (lo < hi) {
      // A free gap exists between the bounds; every slot in [lo, hi) is
      // unoccupied by construction. Place as close to the hint as allowed.
      const size_t place = std::clamp(hint, lo, hi - 1);
      LSBENCH_ASSERT(!seg.occupied[place]);
      seg.slot_keys[place] = key;
      seg.slot_values[place] = value;
      seg.occupied[place] = true;
      ++seg.live;
      ++size_;
      const double disp = place > hint ? static_cast<double>(place - hint)
                                       : static_cast<double>(hint - place);
      seg.displacement_sum += disp;
      ++seg.displacement_count;
    } else {
      // No gap: shift one step toward the nearest free slot.
      size_t free_left = kNpos;
      if (left_bound != kNpos) {
        for (size_t i = left_bound; i > 0;) {
          --i;
          if (!seg.occupied[i]) {
            free_left = i;
            break;
          }
        }
        if (free_left == kNpos && !seg.occupied[0]) free_left = 0;
      }
      size_t free_right = kNpos;
      for (size_t i = right_bound; i < slots; ++i) {
        if (!seg.occupied[i]) {
          free_right = i;
          break;
        }
      }
      if (free_left == kNpos && free_right == kNpos) {
        // Segment is completely full: rebuild with fresh gaps and retry.
        RebuildSegment(&seg);
        const bool inserted = Insert(key, value);
        LSBENCH_ASSERT(inserted);
        return true;
      }
      size_t place;
      // Shift cost is the distance to the free slot; pick the cheaper side.
      const size_t cost_left =
          free_left == kNpos ? kNpos : left_bound - free_left;
      const size_t cost_right =
          free_right == kNpos ? kNpos : free_right - right_bound;
      if (cost_left != kNpos && (cost_right == kNpos || cost_left <= cost_right)) {
        // Shift (free_left, left_bound] one slot left; slot left_bound frees.
        for (size_t i = free_left; i < left_bound; ++i) {
          seg.slot_keys[i] = seg.slot_keys[i + 1];
          seg.slot_values[i] = seg.slot_values[i + 1];
          seg.occupied[i] = seg.occupied[i + 1];
        }
        place = left_bound;
      } else {
        // Shift [right_bound, free_right) one slot right; right_bound frees.
        for (size_t i = free_right; i > right_bound; --i) {
          seg.slot_keys[i] = seg.slot_keys[i - 1];
          seg.slot_values[i] = seg.slot_values[i - 1];
          seg.occupied[i] = seg.occupied[i - 1];
        }
        place = right_bound;
      }
      seg.slot_keys[place] = key;
      seg.slot_values[place] = value;
      seg.occupied[place] = true;
      ++seg.live;
      ++size_;
      const double disp = place > hint ? static_cast<double>(place - hint)
                                       : static_cast<double>(hint - place);
      seg.displacement_sum += disp + 1.0;  // Shifts cost extra work.
      ++seg.displacement_count;
    }
  }

  // Structural maintenance: split overfull segments; retrain badly-modeled
  // ones. Both count as online training effort.
  if (seg.live > options_.max_segment_entries) {
    SplitSegment(seg_idx);
  } else if (seg.displacement_count >= kDisplacementWindow) {
    const double mean_disp =
        seg.displacement_sum / static_cast<double>(seg.displacement_count);
    if (mean_disp > options_.retrain_error_threshold) {
      RebuildSegment(&seg);
    } else {
      seg.displacement_sum = 0.0;
      seg.displacement_count = 0;
    }
  }
  return true;
}

bool AdaptiveLearnedIndex::Erase(Key key) {
  if (segments_.empty()) return false;
  const size_t seg_idx = SegmentFor(key);
  Segment& seg = segments_[seg_idx];
  const size_t slot = FindSlot(seg, key);
  if (slot >= seg.slot_keys.size()) return false;
  seg.occupied[slot] = false;
  --seg.live;
  --size_;
  if (seg.live == 0 && segments_.size() > 1) {
    segments_.erase(segments_.begin() + seg_idx);
    if (seg_idx == 0) segments_.front().first_key = 0;
  }
  return true;
}

size_t AdaptiveLearnedIndex::Scan(Key from, size_t limit,
                                  std::vector<KeyValue>* out) const {
  if (segments_.empty()) return 0;
  size_t appended = 0;
  for (size_t s = SegmentFor(from); s < segments_.size() && appended < limit;
       ++s) {
    const Segment& seg = segments_[s];
    for (size_t i = 0; i < seg.slot_keys.size() && appended < limit; ++i) {
      if (!seg.occupied[i] || seg.slot_keys[i] < from) continue;
      out->emplace_back(seg.slot_keys[i], seg.slot_values[i]);
      ++appended;
    }
  }
  return appended;
}

size_t AdaptiveLearnedIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const Segment& seg : segments_) {
    bytes += seg.slot_keys.size() * (sizeof(Key) + sizeof(Value)) +
             seg.slot_keys.size() / 8 + sizeof(Segment);
  }
  return bytes;
}

template <typename View>
void AdaptiveLearnedIndex::BulkLoadFrom(const View& view) {
  const size_t n = view.size();
  segments_.clear();
  size_ = n;
  retrain_count_ = 0;
  retrain_work_ = 0;
  if (n == 0) return;
  for (size_t i = 1; i < n; ++i) {
    LSBENCH_ASSERT_MSG(view.key(i - 1) < view.key(i),
                       "BulkLoad requires strictly ascending keys");
  }
  const size_t chunk = std::max<size_t>(1, options_.max_segment_entries / 2);
  std::vector<KeyValue> pairs;
  size_t i = 0;
  while (i < n) {
    const size_t take = std::min(chunk, n - i);
    pairs.clear();
    for (size_t j = i; j < i + take; ++j) {
      pairs.emplace_back(view.key(j), view.value(j));
    }
    const Key first_key = i == 0 ? 0 : pairs.front().first;
    segments_.push_back(MakeSegment(pairs, first_key));
    i += take;
  }
}

void AdaptiveLearnedIndex::BulkLoad(const std::vector<KeyValue>& sorted_pairs) {
  BulkLoadFrom(SortedPairsView{&sorted_pairs});
}

void AdaptiveLearnedIndex::BulkLoadKeys(std::span<const Key> sorted_keys,
                                       Value first_value) {
  BulkLoadFrom(SortedKeysView{sorted_keys, first_value});
}

void AdaptiveLearnedIndex::CheckInvariants() const {
  size_t total_live = 0;
  Key prev_key = 0;
  bool any = false;
  for (size_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    if (s > 0) {
      LSBENCH_ASSERT(segments_[s - 1].first_key < seg.first_key);
    }
    size_t live = 0;
    for (size_t i = 0; i < seg.slot_keys.size(); ++i) {
      if (!seg.occupied[i]) continue;
      ++live;
      LSBENCH_ASSERT(seg.slot_keys[i] >= seg.first_key);
      if (any) LSBENCH_ASSERT(prev_key < seg.slot_keys[i]);
      prev_key = seg.slot_keys[i];
      any = true;
    }
    LSBENCH_ASSERT(live == seg.live);
    total_live += live;
  }
  LSBENCH_ASSERT(total_live == size_);
}

}  // namespace lsbench
