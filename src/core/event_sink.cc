#include "core/event_sink.h"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <utility>

#include "util/assert.h"

namespace lsbench {

// lsbench-deepcheck: allow(hot-alloc, hot-throw)
void EventSink::RecordSlow(const OpEvent& event) {
  // Only reached when Reserve undersized the arena: a worker drew more
  // batch elements than the driver's expected count plus margin
  // (ExpectedArenaEvents). Doubling keeps repeat spills amortized.
  events_.reserve(std::max<size_t>(events_.size() * 2, 64));
  events_.push_back(event);
  used_ = events_.size();
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
