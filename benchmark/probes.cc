#include "benchmark/probes.h"

#include <sys/resource.h>

#include <algorithm>

#include "core/event_sink.h"
#include "core/workload_stream.h"
#include "util/atomic.h"
#include "util/random.h"

namespace lsbench {
namespace bm {
namespace {

/// Identifies a TimedSut instance in the per-thread slot cache, where an
/// address could be reused by a later instance.
uint64_t NextTimedSutId() {
  static Atomic<uint64_t> next{1};
  return next.Add(1);
}

struct ThreadSlotCache {
  uint64_t owner = 0;
  TimedSut::Totals* slot = nullptr;
};
thread_local ThreadSlotCache tls_slot;

}  // namespace

TimedSut::TimedSut(SystemUnderTest* inner)
    : inner_(inner), id_(NextTimedSutId()) {}

TimedSut::Totals* TimedSut::ThreadSlot() {
  if (tls_slot.owner != id_) {
    MutexLock lock(mu_);
    slots_.push_back(std::make_unique<Totals>());
    tls_slot.owner = id_;
    tls_slot.slot = slots_.back().get();
  }
  return tls_slot.slot;
}

OpResult TimedSut::Execute(const Operation& op) {
  Totals* slot = ThreadSlot();
  const int64_t start = clock_.NowNanos();
  OpResult result = inner_->Execute(op);
  slot->nanos += clock_.NowNanos() - start;
  slot->calls++;
  slot->elements++;
  return result;
}

void TimedSut::ExecuteBatch(const Operation& op, OpResult* results) {
  Totals* slot = ThreadSlot();
  const int64_t start = clock_.NowNanos();
  inner_->ExecuteBatch(op, results);
  slot->nanos += clock_.NowNanos() - start;
  slot->calls++;
  slot->elements += op.batch_size;
}

TimedSut::Totals TimedSut::totals() const {
  MutexLock lock(mu_);
  Totals sum;
  for (const std::unique_ptr<Totals>& slot : slots_) {
    sum.nanos += slot->nanos;
    sum.calls += slot->calls;
    sum.elements += slot->elements;
  }
  return sum;
}

StreamDrain DrainStream(const RunSpec& spec) {
  const RealClock clock;
  StreamDrain drain;
  WorkloadStream stream(&spec, Rng(spec.seed), 1.0);
  const int64_t start = clock.NowNanos();
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    const PhaseSpec& phase = spec.phases[i];
    stream.BeginPhase(i, phase.num_operations, phase.transition_operations, 0);
    while (stream.HasNext()) {
      const WorkloadStream::Issue issue = stream.Next();
      drain.units++;
      drain.elements += OpResultCount(issue.op);
    }
  }
  drain.nanos = clock.NowNanos() - start;
  return drain;
}

std::vector<EventStream> SplitByWorker(const EventStream& events,
                                       uint32_t workers, bool* in_seq_order) {
  std::vector<EventStream> shards(workers);
  *in_seq_order = true;
  for (const OpEvent& e : events) {
    if (e.worker >= workers) {
      *in_seq_order = false;
      continue;
    }
    EventStream& shard = shards[e.worker];
    if (e.seq != shard.size()) *in_seq_order = false;
    shard.push_back(e);
  }
  return shards;
}

int64_t ReplayIntoSinks(const std::vector<EventStream>& shards,
                        bool* complete) {
  const RealClock clock;
  *complete = true;
  int64_t nanos = 0;
  std::vector<OpResult> results;
  for (size_t w = 0; w < shards.size(); ++w) {
    const EventStream& shard = shards[w];
    EventSink sink(static_cast<uint32_t>(w));
    sink.Reserve(shard.size());
    const int64_t start = clock.NowNanos();
    for (size_t i = 0; i < shard.size();) {
      const OpEvent& proto = shard[i];
      // A batch's elements are adjacent in their shard (consecutive seqs).
      const size_t count =
          std::min<size_t>(std::max<uint32_t>(proto.batch, 1),
                           shard.size() - i);
      if (count == 1) {
        sink.Record(proto);
      } else {
        if (results.size() < count) results.resize(count);
        for (size_t j = 0; j < count; ++j) {
          results[j].ok = shard[i + j].ok;
          results[j].rows = shard[i + j].rows;
        }
        sink.RecordBatch(proto, results.data(),
                         static_cast<uint32_t>(count));
      }
      i += count;
    }
    nanos += clock.NowNanos() - start;
    if (sink.TakeEvents().size() != shard.size()) *complete = false;
  }
  return nanos;
}

bool SameSerialization(const EventStream& a, const EventStream& b) {
  if (a.size() != b.size()) return false;
  constexpr size_t kSlice = size_t{1} << 16;
  for (size_t lo = 0; lo < a.size(); lo += kSlice) {
    const size_t hi = std::min(a.size(), lo + kSlice);
    const EventStream slice_a(a.begin() + static_cast<ptrdiff_t>(lo),
                              a.begin() + static_cast<ptrdiff_t>(hi));
    const EventStream slice_b(b.begin() + static_cast<ptrdiff_t>(lo),
                              b.begin() + static_cast<ptrdiff_t>(hi));
    if (SerializeEventStream(slice_a) != SerializeEventStream(slice_b)) {
      return false;
    }
  }
  return true;
}

IndexProbe ProbeIndexGets(KvIndex* index, const std::vector<uint64_t>& keys,
                          uint64_t seed) {
  constexpr size_t kLookups = size_t{1} << 20;
  IndexProbe probe;
  if (keys.empty()) return probe;
  {
    std::vector<KeyValue> pairs;
    pairs.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) pairs.emplace_back(keys[i], i);
    index->BulkLoad(pairs);
  }
  Rng rng(seed);
  std::vector<uint64_t> ordinals(kLookups);
  for (uint64_t& o : ordinals) o = rng.NextBounded(keys.size());

  const RealClock clock;
  uint64_t mismatches = 0;
  const int64_t start = clock.NowNanos();
  for (const uint64_t o : ordinals) {
    const std::optional<Value> v = index->Get(keys[o]);
    mismatches += (v.has_value() && *v == o) ? 0 : 1;
  }
  const int64_t nanos = clock.NowNanos() - start;
  probe.ns_per_get =
      static_cast<double>(nanos) / static_cast<double>(kLookups);
  probe.all_found = mismatches == 0;
  return probe;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace bm
}  // namespace lsbench
