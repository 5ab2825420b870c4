#include "obs/trace.h"

#include <algorithm>

namespace lsbench {
namespace {

/// Strict weak ordering by (start, worker, seq) — the event-shard merge
/// discipline. Names deliberately do not participate: provenance alone
/// determines the order, names are payload.
bool SpanBefore(const TraceSpan& a, const TraceSpan& b) {
  if (a.start_nanos != b.start_nanos) return a.start_nanos < b.start_nanos;
  if (a.worker != b.worker) return a.worker < b.worker;
  return a.seq < b.seq;
}

}  // namespace

// lsbench-deepcheck: allow(hot-alloc, hot-throw)
void Tracer::RecordSlow(const TraceSpan& span) {
  // Only reached when Reserve undersized the arena. Doubling keeps repeat
  // spills amortized.
  spans_.reserve(std::max<size_t>(spans_.size() * 2, 64));
  spans_.push_back(span);
  used_ = spans_.size();
}

TraceStream MergeTraceShards(std::vector<TraceStream> shards) {
  if (shards.empty()) return {};
  if (shards.size() == 1) return std::move(shards[0]);
  size_t total = 0;
  for (const TraceStream& shard : shards) total += shard.size();
  TraceStream merged;
  merged.reserve(total);
  for (TraceStream& shard : shards) {
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  // Each shard is already in (start, seq) order for its single worker, so a
  // k-way merge like MergeEventShards' would do; spans exist only on traced
  // runs, so the simpler stable_sort stays.
  std::stable_sort(merged.begin(), merged.end(), SpanBefore);
  return merged;
}

}  // namespace lsbench
