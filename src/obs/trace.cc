#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <sstream>

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

std::string SerializeTrace(const TraceStream& trace) {
  std::ostringstream out;
  out << "# lsbench-trace v1 spans=" << trace.size() << "\n";
  for (const TraceSpan& span : trace) {
    out << "span " << span.start_nanos << ' ' << span.end_nanos << ' '
        << span.phase << ' ' << span.worker << ' ' << span.seq << ' '
        << span.name << '\n';
  }
  return out.str();
}

uint64_t HashTrace(const TraceStream& trace) {
  const std::string text = SerializeTrace(trace);
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
  for (const char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;  // FNV-1a prime.
  }
  return hash;
}

}  // namespace lsbench
