#include "core/event_sink.h"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <utility>

#include "util/assert.h"

namespace lsbench {

// lsbench-deepcheck: allow(hot-alloc, hot-throw)
void EventSink::RecordUnitSlow(const OpEvent& unit) {
  // Only reached when Reserve undersized the arena; the driver reserves
  // every unit of the run. Doubling keeps repeat spills amortized.
  units_.reserve(std::max<size_t>(units_.size() * 2, 64));
  units_.push_back(unit);
  used_units_ = units_.size();
}

// lsbench-deepcheck: allow(hot-alloc, hot-throw)
void EventSink::GrowOutcomes(uint32_t count) {
  // Only reached when a worker drew more batch elements than the driver's
  // expected count plus margin (ExpectedBatchElements).
  outcomes_.resize(std::max<size_t>((used_outcomes_ + count) * 2, 64));
}

// lsbench-deepcheck: allow(hot-alloc, hot-throw)
void EventSink::RecordWideRows(uint64_t rows) { wide_rows_.push_back(rows); }

UnitShard EventSink::TakeUnits() {
  units_.resize(used_units_);
  outcomes_.resize(used_outcomes_);
  used_units_ = 0;
  used_outcomes_ = 0;
  elements_ = 0;
  return UnitShard{std::move(units_), std::move(outcomes_),
                   std::move(wide_rows_)};
}

EventStream EventSink::TakeEvents() {
  const size_t elements = elements_;
  UnitShard shard = TakeUnits();
  EventStream units = std::move(shard.units);
  std::vector<UnitShard> shards(worker_ + size_t{1});
  shards[worker_] = std::move(shard);
  return ExpandUnits(std::move(units), std::move(shards), elements);
}

EventStream ExpandUnits(EventStream units, std::vector<UnitShard> shards,
                        uint64_t elements) {
  const size_t count = units.size();
  if (elements == count) return units;
  LSBENCH_ASSERT_MSG(elements > count,
                     "ExpandUnits: the units carry a different element count");
  units.reserve(elements);
  units.resize(elements);
  // Back to front: `end` is where the elements of the units not yet
  // expanded end. Unit i's elements start at end - k >= i, and each unit
  // is copied out before its own elements are written, possibly over it.
  size_t end = elements;
  for (size_t i = count; i-- > 0;) {
    const OpEvent unit = units[i];
    const uint32_t k = UnitElements(unit);
    LSBENCH_ASSERT_MSG(end - i >= k,
                       "ExpandUnits: the units carry a different element "
                       "count");
    end -= k;
    OpEvent* out = units.data() + end;
    if (unit.batch <= 1) {
      out[0] = unit;
      continue;
    }
    if (unit.queue_shed) {
      for (uint32_t j = 0; j < k; ++j) {
        out[j] = unit;
        out[j].seq = unit.seq + j;
      }
      continue;
    }
    LSBENCH_ASSERT_MSG(unit.worker < shards.size(),
                       "ExpandUnits: a unit's worker has no outcome array");
    UnitShard& own = shards[unit.worker];
    LSBENCH_ASSERT_MSG(
        k <= own.outcomes.size(),
        "ExpandUnits: a unit keeps more outcomes than its worker recorded");
    const size_t first = own.outcomes.size() - k;
    const ElementOutcome* results = own.outcomes.data() + first;
    for (uint32_t j = k; j-- > 0;) {
      OpEvent& element = out[j];
      element = unit;
      element.ok = !unit.failed && results[j].ok;
      element.seq = unit.seq + j;
      if (results[j].rows != kRowsEscape) {
        element.rows = results[j].rows;
        continue;
      }
      LSBENCH_ASSERT_MSG(!own.wide_rows.empty(),
                         "ExpandUnits: an outcome escapes, but its worker "
                         "kept no wide rows for it");
      element.rows = own.wide_rows.back();
      own.wide_rows.pop_back();
    }
    own.outcomes.resize(first);
  }
  LSBENCH_ASSERT_MSG(end == 0,
                     "ExpandUnits: the units carry a different element count");
  return units;
}

EventStream MergeEventShards(std::vector<EventStream> shards,
                             size_t capacity) {
  if (shards.empty()) return {};
  if (shards.size() == 1) {
    shards[0].reserve(capacity);
    return std::move(shards[0]);
  }

  // A k-way merge: a min-heap holds each unfinished shard's next event
  // (ties between shards broken by shard index, so equal keys still merge
  // deterministically). The shard on top contributes its whole run of
  // events that sort before every other shard's head -- a batch's elements
  // usually move as one copy.
  struct Head {
    const EventStream* shard;
    size_t index;
    size_t pos;
  };
  const auto after = [](const Head& a, const Head& b) {
    const OpEvent& x = (*a.shard)[a.pos];
    const OpEvent& y = (*b.shard)[b.pos];
    if (MergeOrderLess(x, y)) return false;
    if (MergeOrderLess(y, x)) return true;
    return a.index > b.index;
  };
  std::vector<Head> heap;
  size_t total = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    total += shards[i].size();
    if (!shards[i].empty()) heap.push_back({&shards[i], i, 0});
  }
  std::make_heap(heap.begin(), heap.end(), after);

  EventStream merged;
  merged.reserve(std::max(total, capacity));
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Head& head = heap.back();
    const EventStream& shard = *head.shard;
    size_t end = head.pos + 1;
    for (; end < shard.size(); ++end) {
      LSBENCH_ASSERT_MSG(MergeOrderLess(shard[end - 1], shard[end]),
                         "MergeEventShards: a shard is not in "
                         "(timestamp, seq) order");
      if (heap.size() > 1) {
        const Head next{&shard, head.index, end};
        if (after(next, heap.front())) break;
      }
    }
    merged.insert(merged.end(), shard.begin() + head.pos,
                  shard.begin() + end);
    if (end == shard.size()) {
      heap.pop_back();
    } else {
      head.pos = end;
      std::push_heap(heap.begin(), heap.end(), after);
    }
  }
  return merged;
}

std::string SerializeEventStream(const EventStream& events) {
  std::ostringstream out;
  out << "# lsbench-events v3 events=" << events.size() << "\n";
  for (const OpEvent& e : events) {
    out << e.timestamp_nanos << ' ' << e.latency_nanos << ' ' << e.issue_nanos
        << ' ' << e.phase << ' ' << static_cast<int>(e.type) << ' '
        << (e.ok ? 1 : 0) << ' ' << e.rows << ' ' << e.retries << ' '
        << (e.failed ? 1 : 0) << ' ' << (e.timed_out ? 1 : 0) << ' '
        << (e.shed ? 1 : 0) << ' ' << (e.queue_shed ? 1 : 0) << ' '
        << (e.open_loop ? 1 : 0) << ' ' << e.batch << ' ' << e.worker << ' '
        << e.seq << '\n';
  }
  return out.str();
}

}  // namespace lsbench
