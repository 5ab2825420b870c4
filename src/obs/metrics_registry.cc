#include "obs/metrics_registry.h"

#include <utility>

namespace lsbench {

void LockedHistogram::Record(int64_t nanos) {
  MutexLock lock(mu_);
  hist_.Record(static_cast<double>(nanos));
}

Histogram LockedHistogram::Snapshot() const {
  MutexLock lock(mu_);
  return hist_;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LockedHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<LockedHistogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LockedHistogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace_back(name, hist->Snapshot());
  }
  return snap;
}

namespace {

/// Merges two sorted (name, value) vectors, combining equal names with
/// `combine(target, source)`.
template <typename T, typename Combine>
void MergeSortedSeries(std::vector<std::pair<std::string, T>>* target,
                       const std::vector<std::pair<std::string, T>>& other,
                       Combine combine) {
  std::vector<std::pair<std::string, T>> merged;
  merged.reserve(target->size() + other.size());
  size_t i = 0;
  size_t j = 0;
  while (i < target->size() && j < other.size()) {
    const int cmp = (*target)[i].first.compare(other[j].first);
    if (cmp < 0) {
      merged.push_back(std::move((*target)[i++]));
    } else if (cmp > 0) {
      merged.push_back(other[j++]);
    } else {
      std::pair<std::string, T> entry = std::move((*target)[i++]);
      combine(&entry.second, other[j++].second);
      merged.push_back(std::move(entry));
    }
  }
  while (i < target->size()) merged.push_back(std::move((*target)[i++]));
  while (j < other.size()) merged.push_back(other[j++]);
  *target = std::move(merged);
}

}  // namespace

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  MergeSortedSeries(&counters, other.counters,
                    [](uint64_t* target, uint64_t source) {
                      *target += source;
                    });
  MergeSortedSeries(&gauges, other.gauges, [](int64_t* target, int64_t source) {
    *target += source;
  });
  MergeSortedSeries(&histograms, other.histograms,
                    [](Histogram* target, const Histogram& source) {
                      target->Merge(source);
                    });
}

MetricsSnapshot MergeMetricsShards(const std::vector<MetricsSnapshot>& shards) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& shard : shards) merged.MergeFrom(shard);
  return merged;
}

}  // namespace lsbench
