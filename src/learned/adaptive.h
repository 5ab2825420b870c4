#ifndef LSBENCH_LEARNED_ADAPTIVE_H_
#define LSBENCH_LEARNED_ADAPTIVE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/kv_index.h"
#include "stats/model.h"

namespace lsbench {

/// Tuning knobs for the adaptive learned index.
struct AdaptiveOptions {
  /// Segment splits when its live entries exceed this.
  size_t max_segment_entries = 4096;
  /// Gapped-array slack: slots = entries * expansion_factor.
  double expansion_factor = 1.5;
  /// A segment retrains its model when the observed mean displacement of
  /// model-guided probes exceeds this many slots.
  double retrain_error_threshold = 64.0;
};

/// ALEX-style updatable learned index: a sorted directory of segments, each
/// a model-backed gapped array. Inserts go to the model-predicted slot and
/// shift into neighboring gaps; overfull or badly-modeled segments split and
/// retrain *online* — the continuous, incremental adaptation behavior
/// ("online learning") that LSBench's adaptability metrics measure.
class AdaptiveLearnedIndex final : public KvIndex {
 public:
  explicit AdaptiveLearnedIndex(AdaptiveOptions options = {});

  std::string name() const override { return "alex_lite"; }
  std::optional<Value> Get(Key key) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t Scan(Key from, size_t limit,
              std::vector<KeyValue>* out) const override;
  size_t size() const override { return size_; }
  size_t MemoryBytes() const override;
  void BulkLoad(const std::vector<KeyValue>& sorted_pairs) override;
  void BulkLoadKeys(std::span<const Key> sorted_keys,
                    Value first_value) override;

  size_t segment_count() const { return segments_.size(); }
  /// Cumulative number of model refits (splits + threshold retrains) —
  /// the online-training-effort signal surfaced to cost accounting.
  uint64_t retrain_count() const { return retrain_count_; }
  /// Cumulative entries rewritten by splits/retrains (work units).
  uint64_t retrain_work() const { return retrain_work_; }

  /// Verifies directory ordering, per-segment slot ordering, and size
  /// bookkeeping. Aborts on violation; for tests.
  void CheckInvariants() const;

 private:
  /// The one body of both bulk loads (View: index/kv_index.h).
  template <typename View>
  void BulkLoadFrom(const View& view);
  /// One gapped-array segment. `occupied[i]` marks live slots; keys of dead
  /// slots are undefined.
  struct Segment {
    Key first_key = 0;           // Directory key (min possible key here).
    LinearModel model;           // key -> slot hint.
    std::vector<Key> slot_keys;
    std::vector<Value> slot_values;
    std::vector<bool> occupied;
    size_t live = 0;
    double displacement_sum = 0.0;  // For the retrain heuristic.
    uint64_t displacement_count = 0;
  };

  size_t SegmentFor(Key key) const;
  /// Slot of `key` in segment, or slot_keys.size() if absent.
  size_t FindSlot(const Segment& seg, Key key) const;
  /// Rebuilds a segment from its live entries (model + gapped layout).
  void RebuildSegment(Segment* seg);
  static std::vector<KeyValue> ExtractLive(const Segment& seg);
  void SplitSegment(size_t seg_idx);
  /// Builds a fresh segment from sorted pairs.
  Segment MakeSegment(const std::vector<KeyValue>& pairs, Key first_key) const;

  AdaptiveOptions options_;
  std::vector<Segment> segments_;  // Ascending by first_key.
  size_t size_ = 0;
  uint64_t retrain_count_ = 0;
  uint64_t retrain_work_ = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_ADAPTIVE_H_
