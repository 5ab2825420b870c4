#ifndef LSBENCH_BENCHMARK_PROBES_H_
#define LSBENCH_BENCHMARK_PROBES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/events.h"
#include "core/run_spec.h"
#include "index/kv_index.h"
#include "sut/sut.h"
#include "util/clock.h"
#include "util/sync.h"

namespace lsbench {
namespace bm {

// Per-layer probes for the traced run. Each one times calls into a layer's
// public functions from outside the library, so the library itself carries
// no benchmark hooks.

/// Timing decorator around a SUT: the real-clock time spent inside Execute
/// and ExecuteBatch. Batches are forwarded whole, and every other entry
/// point is forwarded unchanged, so the driver wraps it (in SerializingSut,
/// for serial systems under fan-out) exactly as it would the bare SUT. Each
/// calling thread accumulates into its own slot, so timing adds no shared
/// write per call. The driver's monomorphized loop does not see through
/// it, so it keeps the untraced run's loop only behind SerializingSut.
class TimedSut final : public SystemUnderTest {
 public:
  /// `inner` must outlive the decorator.
  explicit TimedSut(SystemUnderTest* inner);

  TimedSut(const TimedSut&) = delete;
  TimedSut& operator=(const TimedSut&) = delete;

  std::string name() const override { return inner_->name(); }
  SutConcurrency concurrency() const override { return inner_->concurrency(); }
  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    return inner_->Load(sorted_pairs);
  }
  TrainReport Train() override { return inner_->Train(); }
  OpResult Execute(const Operation& op) override;
  void ExecuteBatch(const Operation& op, OpResult* results) override;
  void OnPhaseStart(int phase_index, bool holdout) override {
    inner_->OnPhaseStart(phase_index, holdout);
  }
  SutStats GetStats() const override { return inner_->GetStats(); }
  void BindObservability(MetricsRegistry* registry) override {
    inner_->BindObservability(registry);
  }

  struct Totals {
    int64_t nanos = 0;
    uint64_t calls = 0;
    uint64_t elements = 0;
  };
  /// Sum over all calling threads. Call only once those threads have been
  /// joined (after BenchmarkDriver::Run returns).
  Totals totals() const;

 private:
  /// The calling thread's accumulator, registered on its first call.
  Totals* ThreadSlot();

  SystemUnderTest* const inner_;
  const uint64_t id_;
  RealClock clock_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Totals>> slots_ LSBENCH_GUARDED_BY(mu_);
};

/// A run's WorkloadStream drained on its own: one stream with the run's
/// seed and every phase's full request count.
struct StreamDrain {
  int64_t nanos = 0;
  uint64_t units = 0;     ///< Request units drawn.
  uint64_t elements = 0;  ///< Their elements (batch sizes summed).
};
StreamDrain DrainStream(const RunSpec& spec);

/// Splits a merged stream into one shard per worker. Sets `*in_seq_order`
/// to whether every shard came out in its issue (seq) order, which the
/// merge contract implies.
std::vector<EventStream> SplitByWorker(const EventStream& events,
                                       uint32_t workers, bool* in_seq_order);

/// Replays each shard into a fresh EventSink the way the driver records it
/// (batches through RecordBatch). Returns the time spent recording, and
/// sets `*complete` to whether every sink recorded its whole shard.
int64_t ReplayIntoSinks(const std::vector<EventStream>& shards,
                        bool* complete);

/// Whether two streams serialize to the same bytes (SerializeEventStream,
/// compared in slices to bound memory).
bool SameSerialization(const EventStream& a, const EventStream& b);

/// Standalone point lookups on `index` after bulk-loading `keys` with
/// their ordinals as values.
struct IndexProbe {
  double ns_per_get = 0.0;
  bool all_found = true;  ///< Every lookup returned its key's ordinal.
};
IndexProbe ProbeIndexGets(KvIndex* index, const std::vector<uint64_t>& keys,
                          uint64_t seed);

/// The process's peak resident set so far, MiB.
double PeakRssMiB();

}  // namespace bm
}  // namespace lsbench

#endif  // LSBENCH_BENCHMARK_PROBES_H_
