#ifndef LSBENCH_LEARNED_PGM_H_
#define LSBENCH_LEARNED_PGM_H_

#include <span>
#include <string>
#include <vector>

#include "index/kv_index.h"
#include "learned/delta_buffer.h"
#include "stats/model.h"

namespace lsbench {

/// Piecewise Geometric Model index (Ferragina & Vinciguerra style): a greedy
/// shrinking-cone pass builds the minimal set of linear segments such that
/// every key's predicted position is within `epsilon` of its true position.
/// Lookups binary-search the segment directory, then search a 2*epsilon+1
/// window. Writes go to a delta buffer until Retrain().
class PgmIndex final : public KvIndex {
 public:
  /// `epsilon` >= 1: the guaranteed maximum position error per segment.
  explicit PgmIndex(uint32_t epsilon = 64);

  std::string name() const override { return "pgm"; }
  std::optional<Value> Get(Key key) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t Scan(Key from, size_t limit,
              std::vector<KeyValue>* out) const override;
  size_t size() const override { return live_count_; }
  size_t MemoryBytes() const override;
  void BulkLoad(const std::vector<KeyValue>& sorted_pairs) override;
  void BulkLoadKeys(std::span<const Key> sorted_keys,
                    Value first_value) override;

  /// Merges the delta and rebuilds segments. Returns keys trained over.
  size_t Retrain();

  size_t delta_size() const { return delta_.size(); }
  size_t static_size() const { return keys_.size(); }
  /// The sorted keys the models were last fitted over. They are every live
  /// key only while delta_size() == 0.
  const std::vector<Key>& static_keys() const { return keys_; }
  size_t segment_count() const { return segments_.size(); }
  uint32_t epsilon() const { return epsilon_; }

 private:
  /// The one body of both bulk loads (View: index/kv_index.h).
  template <typename View>
  void BulkLoadFrom(const View& view);
  /// Piecewise-linear segment anchored at its own origin: position(key) =
  /// slope * (key - x0) + y0. The anchored form is numerically essential —
  /// an absolute `slope * key + intercept` loses ~8 positions of precision
  /// for keys near 2^63, silently exceeding the epsilon guarantee.
  struct Segment {
    Key first_key;
    double x0;     // double(first_key).
    double y0;     // Position of first_key.
    double slope;
  };

  void Fit();
  size_t FindStatic(Key key) const;
  bool StaticContains(Key key) const { return FindStatic(key) < keys_.size(); }

  uint32_t epsilon_;
  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<Segment> segments_;
  DeltaBuffer delta_;
  size_t live_count_ = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_LEARNED_PGM_H_
