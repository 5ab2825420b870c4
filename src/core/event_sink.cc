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
void EventSink::RecordOutcomesSlow(const OpResult* results, uint32_t count) {
  // Only reached when a worker drew more batch elements than the driver's
  // expected count plus margin (ExpectedBatchElements).
  outcomes_.resize(used_outcomes_);
  outcomes_.reserve(std::max<size_t>((outcomes_.size() + count) * 2, 64));
  for (uint32_t i = 0; i < count; ++i) {
    outcomes_.push_back(ElementOutcome{results[i].ok, results[i].rows});
  }
  used_outcomes_ = outcomes_.size();
}

UnitShard EventSink::TakeUnits() {
  units_.resize(used_units_);
  outcomes_.resize(used_outcomes_);
  used_units_ = 0;
  used_outcomes_ = 0;
  elements_ = 0;
  return UnitShard{std::move(units_), std::move(outcomes_)};
}

namespace {

/// Appends `unit`'s elements to `out`. A unit that keeps outcomes reads
/// them from `*outcome` on, and moves `*outcome` past them.
void AppendElements(const OpEvent& unit, const ElementOutcome** outcome,
                    EventStream* out) {
  if (unit.batch <= 1) {
    out->push_back(unit);
    return;
  }
  OpEvent element = unit;
  if (unit.queue_shed) {
    for (uint32_t i = 0; i < unit.batch; ++i) {
      element.seq = unit.seq + i;
      out->push_back(element);
    }
    return;
  }
  const ElementOutcome* results = *outcome;
  for (uint32_t i = 0; i < unit.batch; ++i) {
    element.ok = !unit.failed && results[i].ok;
    element.rows = results[i].rows;
    element.seq = unit.seq + i;
    out->push_back(element);
  }
  *outcome += unit.batch;
}

}  // namespace

EventStream EventSink::TakeEvents() {
  const size_t elements = elements_;
  UnitShard shard = TakeUnits();
  std::vector<std::vector<ElementOutcome>> outcomes(worker_ + size_t{1});
  outcomes[worker_] = std::move(shard.outcomes);
  return ExpandUnits(std::move(shard.units), outcomes, elements);
}

EventStream ExpandUnits(
    EventStream units, const std::vector<std::vector<ElementOutcome>>& outcomes,
    uint64_t elements) {
  if (elements == units.size()) return units;
  std::vector<const ElementOutcome*> cursor(outcomes.size());
  for (size_t w = 0; w < outcomes.size(); ++w) cursor[w] = outcomes[w].data();
  EventStream events;
  events.reserve(elements);
  for (const OpEvent& unit : units) {
    LSBENCH_ASSERT_MSG(unit.worker < outcomes.size(),
                       "ExpandUnits: a unit's worker has no outcome array");
    const std::vector<ElementOutcome>& own = outcomes[unit.worker];
    LSBENCH_ASSERT_MSG(
        !UnitHasOutcomes(unit) ||
            unit.batch <= static_cast<size_t>(own.data() + own.size() -
                                              cursor[unit.worker]),
        "ExpandUnits: a unit keeps more outcomes than its worker recorded");
    AppendElements(unit, &cursor[unit.worker], &events);
  }
  LSBENCH_ASSERT_MSG(events.size() == elements,
                     "ExpandUnits: the units carry a different element count");
  return events;
}

EventStream MergeEventShards(std::vector<EventStream> shards) {
  if (shards.empty()) return {};
  if (shards.size() == 1) return std::move(shards[0]);

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
  merged.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Head& head = heap.back();
    const EventStream& shard = *head.shard;
    size_t end = head.pos + 1;
    for (; end < shard.size(); ++end) {
      LSBENCH_ASSERT_MSG(!MergeOrderLess(shard[end], shard[end - 1]),
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
