#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/run_spec.h"
#include "util/assert.h"

namespace lsbench {

namespace {

/// Which `width`-wide slot, counted from `origin`, a time falls in; times
/// before the origin fall in slot 0. Caches the last slot's range, because
/// a shard's times arrive in order and mostly land in the slot just used,
/// which saves a division per event.
class SlotCursor {
 public:
  SlotCursor(int64_t origin, int64_t width)
      : origin_(origin), width_(width) {
    LSBENCH_ASSERT(width > 0);
  }

  size_t SlotOf(int64_t t) {
    if (t < lo_ || t >= hi_) {
      slot_ = t <= origin_ ? 0 : static_cast<size_t>((t - origin_) / width_);
      const int64_t start = origin_ + static_cast<int64_t>(slot_) * width_;
      lo_ = slot_ == 0 ? INT64_MIN : start;
      hi_ = start + width_;
    }
    return slot_;
  }

 private:
  int64_t origin_;
  int64_t width_;
  size_t slot_ = 0;
  int64_t lo_ = 0;  // Empty range until the first lookup.
  int64_t hi_ = 0;
};

/// Makes `bands` at least `size` intervals long, stamping each new band's
/// start time.
void GrowBands(std::vector<LatencyBand>* bands, size_t size,
               int64_t interval_nanos) {
  for (size_t i = bands->size(); i < size; ++i) {
    LatencyBand band;
    band.start_nanos = static_cast<int64_t>(i) * interval_nanos;
    bands->push_back(band);
  }
}

/// The cumulative curve whose steps are the bands' totals: (0, 0), then one
/// point per interval end with every completion before it.
std::vector<CumulativePoint> CurveFromBands(
    const std::vector<LatencyBand>& bands, int64_t interval_nanos) {
  std::vector<CumulativePoint> curve;
  curve.reserve(bands.size() + 1);
  curve.push_back({0, 0});
  uint64_t completed = 0;
  for (size_t i = 0; i < bands.size(); ++i) {
    completed += bands[i].Total();
    curve.push_back({static_cast<int64_t>(i + 1) * interval_nanos, completed});
  }
  return curve;
}

}  // namespace

double AreaVsIdeal(const std::vector<CumulativePoint>& curve) {
  if (curve.size() < 2) return 0.0;
  const double t0 = static_cast<double>(curve.front().t_nanos) * 1e-9;
  const double t1 = static_cast<double>(curve.back().t_nanos) * 1e-9;
  const double total = static_cast<double>(curve.back().completed);
  if (t1 <= t0) return 0.0;
  const double ideal_rate = total / (t1 - t0);
  double area = 0.0;
  for (size_t i = 1; i < curve.size(); ++i) {
    const double ta = static_cast<double>(curve[i - 1].t_nanos) * 1e-9;
    const double tb = static_cast<double>(curve[i].t_nanos) * 1e-9;
    const double va = static_cast<double>(curve[i - 1].completed) -
                      ideal_rate * (ta - t0);
    const double vb = static_cast<double>(curve[i].completed) -
                      ideal_rate * (tb - t0);
    area += 0.5 * (va + vb) * (tb - ta);  // Trapezoid of the difference.
  }
  return area;
}

namespace {

/// Linear interpolation of a cumulative curve at time t (clamped).
double CurveAt(const std::vector<CumulativePoint>& curve, double t_nanos) {
  if (curve.empty()) return 0.0;
  if (t_nanos <= static_cast<double>(curve.front().t_nanos)) {
    return static_cast<double>(curve.front().completed);
  }
  if (t_nanos >= static_cast<double>(curve.back().t_nanos)) {
    return static_cast<double>(curve.back().completed);
  }
  const CumulativePoint probe{static_cast<int64_t>(t_nanos), 0};
  const auto it = std::lower_bound(
      curve.begin(), curve.end(), probe,
      [](const CumulativePoint& a, const CumulativePoint& b) {
        return a.t_nanos < b.t_nanos;
      });
  const size_t hi = it - curve.begin();
  const size_t lo = hi - 1;
  const double ta = static_cast<double>(curve[lo].t_nanos);
  const double tb = static_cast<double>(curve[hi].t_nanos);
  const double frac = tb > ta ? (t_nanos - ta) / (tb - ta) : 0.0;
  return static_cast<double>(curve[lo].completed) +
         frac * (static_cast<double>(curve[hi].completed) -
                 static_cast<double>(curve[lo].completed));
}

}  // namespace

double AreaBetweenCurves(const std::vector<CumulativePoint>& a,
                         const std::vector<CumulativePoint>& b) {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  const double start = std::min(static_cast<double>(a.front().t_nanos),
                                static_cast<double>(b.front().t_nanos));
  const double end = std::max(static_cast<double>(a.back().t_nanos),
                              static_cast<double>(b.back().t_nanos));
  if (end <= start) return 0.0;
  constexpr int kSteps = 512;
  const double dt = (end - start) / kSteps;
  double area = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double t = start + dt * i;
    const double diff = CurveAt(a, t) - CurveAt(b, t);
    const double weight = (i == 0 || i == kSteps) ? 0.5 : 1.0;
    area += weight * diff * dt * 1e-9;
  }
  return area;
}

uint64_t MultiBand::Total() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

std::vector<MultiBand> BuildMultiBands(
    const EventStream& events, int64_t interval_nanos,
    const std::vector<int64_t>& thresholds_nanos) {
  LSBENCH_ASSERT(interval_nanos > 0);
  LSBENCH_ASSERT(!thresholds_nanos.empty());
  for (size_t i = 1; i < thresholds_nanos.size(); ++i) {
    LSBENCH_ASSERT(thresholds_nanos[i - 1] < thresholds_nanos[i]);
  }
  std::vector<MultiBand> bands;
  if (events.empty()) return bands;
  const size_t num_bands =
      static_cast<size_t>(events.back().timestamp_nanos / interval_nanos) + 1;
  bands.resize(num_bands);
  for (size_t i = 0; i < num_bands; ++i) {
    bands[i].start_nanos = static_cast<int64_t>(i) * interval_nanos;
    bands[i].counts.assign(thresholds_nanos.size() + 1, 0);
  }
  for (const OpEvent& e : events) {
    const size_t idx =
        static_cast<size_t>(e.timestamp_nanos / interval_nanos);
    const size_t cls =
        std::lower_bound(thresholds_nanos.begin(), thresholds_nanos.end(),
                         e.latency_nanos) -
        thresholds_nanos.begin();
    ++bands[idx].counts[cls];
  }
  return bands;
}

namespace {

/// CalibrateSla's threshold from the calibration percentile's value.
int64_t SlaFromPercentile(double p, double margin) {
  return static_cast<int64_t>(std::max(1.0, p * margin));
}

}  // namespace

int64_t CalibrateSla(std::vector<double> latencies, double percentile,
                     double margin) {
  if (latencies.empty()) return 1000000;  // 1 ms fallback.
  return SlaFromPercentile(Quantile(std::move(latencies), percentile),
                           margin);
}

MetricsOptions MetricsOptions::FromSpec(const RunSpec& spec) {
  MetricsOptions options;
  options.interval_nanos = spec.interval_nanos;
  options.boxplot_sample_nanos = spec.boxplot_sample_nanos;
  options.adjustment_window_ops = spec.adjustment_window_ops;
  options.sla_nanos = spec.sla.threshold_nanos;
  options.sla_auto_percentile = spec.sla.auto_percentile;
  options.sla_auto_margin = spec.sla.auto_margin;
  options.service_enabled = spec.service.enabled;
  options.service_policy = OverloadPolicyToString(spec.service.policy);
  options.service_queue_capacity = spec.service.queue_capacity;
  options.service_slo_p99_nanos = spec.service.slo_p99_nanos;
  options.service_max_shed_fraction = spec.service.max_shed_fraction;
  return options;
}

namespace {

/// "worker W seq S at t=T ns": where an event sits in its shard.
std::string DescribeEvent(const OpEvent& e) {
  return "worker " + std::to_string(e.worker) + " seq " +
         std::to_string(e.seq) + " at t=" +
         std::to_string(e.timestamp_nanos) + " ns";
}

/// Index of the first boundary of `phase`, or boundaries.size() if none.
size_t FindPhase(const std::vector<PhaseBoundary>& boundaries,
                 int32_t phase) {
  size_t i = 0;
  while (i < boundaries.size() && boundaries[i].phase != phase) ++i;
  return i;
}

/// Histogram::BucketFor, remembering the last value: the elements of a
/// batch share one latency, so a shard repeats values in runs.
class BucketMemo {
 public:
  int Of(double value) {
    if (value != value_) {
      value_ = value;
      bucket_ = Histogram::BucketFor(value);
    }
    return bucket_;
  }

 private:
  double value_ = 0.0;
  int bucket_ = Histogram::BucketFor(0.0);
};

}  // namespace

ShardAccumulation::ShardAccumulation(std::vector<PhaseBoundary> boundaries_in,
                                     const MetricsOptions& options,
                                     int64_t sla)
    : boundaries(std::move(boundaries_in)),
      interval_nanos(options.interval_nanos),
      boxplot_sample_nanos(options.boxplot_sample_nanos),
      sla_nanos(sla),
      op_types(kNumOpTypes),
      phases(boundaries.size()) {
  LSBENCH_ASSERT(interval_nanos > 0 && boxplot_sample_nanos > 0);
  for (size_t i = 0; i < kNumOpTypes; ++i) {
    op_types[i].type = static_cast<OpType>(i);
  }
}

namespace {

/// What one event of a fold stands for: `elements` elements, `ok` of which
/// succeeded, in `units` request units.
struct EventWeight {
  uint64_t elements = 1;
  uint64_t ok = 0;
  uint64_t units = 0;
};

}  // namespace

template <typename Weigh>
Status ShardAccumulation::Fold(const EventStream& shard, Weigh weigh) {
  SlotCursor interval(0, interval_nanos);
  SlotCursor sample(0, boxplot_sample_nanos);
  PhaseAccumulation* phase = nullptr;
  int32_t phase_id = 0;
  BucketMemo latency_bucket;
  BucketMemo effective_bucket;
  const OpEvent* prev = nullptr;
  for (const OpEvent& e : shard) {
    // Strictly after: equal (timestamp, worker, seq) is a unit recorded
    // twice.
    if (prev != nullptr && !MergeOrderLess(*prev, e)) {
      return Status::InvalidArgument(
          "event out of order: " + DescribeEvent(e) + " follows " +
          DescribeEvent(*prev) +
          "; events must be in (timestamp, worker, seq) order");
    }
    prev = &e;
    if (e.latency_nanos < 0) {
      return Status::InvalidArgument(
          "event " + DescribeEvent(e) + " has negative latency " +
          std::to_string(e.latency_nanos) + " ns");
    }
    if (phase == nullptr || e.phase != phase_id) {
      const size_t idx = FindPhase(boundaries, e.phase);
      if (idx == boundaries.size()) {
        return Status::InvalidArgument(
            "event " + DescribeEvent(e) + " has phase " +
            std::to_string(e.phase) + ", which has no phase boundary");
      }
      phase = &phases[idx];
      phase_id = e.phase;
      sample = SlotCursor(boundaries[idx].start_nanos,
                          boxplot_sample_nanos);
    }

    const EventWeight weight = weigh(e);
    const uint64_t k = weight.elements;
    const double latency_value = static_cast<double>(e.latency_nanos);
    const int bucket = latency_bucket.Of(latency_value);
    const bool violated = e.latency_nanos > sla_nanos;

    // Whole-run totals.
    operations += k;
    ok_operations += weight.ok;
    latency.RecordRepeated(latency_value, bucket, k);
    if (violated) sla_violations += k;
    if (e.failed) failed_operations += k;
    if (e.timed_out) timeouts += k;
    if (e.shed) shed_operations += k;
    total_retries += e.retries * k;
    if (e.queue_shed) {
      queue_shed_units += weight.units;
    } else {
      attempts += weight.units * (e.retries + (e.shed ? 0u : 1u));
    }
    last_timestamp_nanos =
        std::max(last_timestamp_nanos, e.timestamp_nanos);
    if (e.open_loop) {
      open_loop_operations += k;
      const int64_t intended = e.timestamp_nanos - e.latency_nanos;
      intended_min_nanos = std::min(intended_min_nanos, intended);
      intended_max_nanos = std::max(intended_max_nanos, intended);
      if (e.queue_shed) {
        queue_shed_operations += k;
      } else {
        // Executed ops only: a shed's "latency" is the policy's decision
        // delay, not a measurement of the SUT. Since issue >= intended
        // arrival, response >= service pointwise, so the p99 gap the
        // report prints — the coordinated-omission error — is nonnegative
        // by construction. An event that breaks intended <= issue <=
        // completion is refused: the histograms would bin its negative
        // wait or service time as 0.
        if (e.issue_nanos < intended || e.timestamp_nanos < e.issue_nanos) {
          return Status::InvalidArgument(
              "open-loop event " + DescribeEvent(e) + " has issue " +
              std::to_string(e.issue_nanos) +
              " ns outside [intended arrival " + std::to_string(intended) +
              " ns, completion]");
        }
        response_latency.RecordRepeated(latency_value, bucket, k);
        const double service =
            static_cast<double>(e.timestamp_nanos - e.issue_nanos);
        service_latency.RecordRepeated(
            service, Histogram::BucketFor(service), k);
        const double wait = static_cast<double>(e.issue_nanos - intended);
        queue_wait.RecordRepeated(wait, Histogram::BucketFor(wait), k);
      }
    }

    // Op-type row: batch classes count per element, with the effective
    // (per-element) latency beside the request-unit latency.
    const size_t type = static_cast<size_t>(e.type);
    LSBENCH_ASSERT(type < kNumOpTypes);
    OpTypeMetrics& row = op_types[type];
    row.operations += k;
    row.ok_operations += weight.ok;
    if (e.failed) row.failed_operations += k;
    row.latency.RecordRepeated(latency_value, bucket, k);
    const uint32_t batch = e.batch > 0 ? e.batch : 1;
    const double effective = latency_value / static_cast<double>(batch);
    row.effective_latency.RecordRepeated(effective,
                                         effective_bucket.Of(effective), k);
    row.batch_sum += batch * k;

    // Phase.
    phase->units += weight.units;
    phase->operations += k;
    phase->latency.RecordRepeated(latency_value, bucket, k);
    if (violated) phase->sla_violations += k;
    if (e.failed) phase->failed_operations += k;
    const size_t s = sample.SlotOf(e.timestamp_nanos);
    if (s >= phase->samples.size()) phase->samples.resize(s + 1);
    phase->samples[s] += k;

    // Interval.
    const size_t i = interval.SlotOf(e.timestamp_nanos);
    if (i >= bands.size()) {
      GrowBands(&bands, i + 1, interval_nanos);
    }
    if (violated) {
      bands[i].violated += k;
    } else {
      bands[i].within_sla += k;
    }
  }
  return Status::OK();
}

Status ShardAccumulation::Accumulate(const EventStream& shard) {
  return Fold(shard, [](const OpEvent& e) {
    return EventWeight{1, e.ok ? uint64_t{1} : 0, 0};
  });
}

Status ShardAccumulation::AccumulateUnits(const UnitShard& shard) {
  const ElementOutcome* outcome = shard.outcomes.data();
  const ElementOutcome* const end = outcome + shard.outcomes.size();
  bool overrun = false;
  const Status folded = Fold(shard.units, [&](const OpEvent& unit) {
    const uint64_t k = UnitElements(unit);
    EventWeight weight{k, unit.ok ? k : 0, 1};
    if (!UnitHasOutcomes(unit)) return weight;
    if (static_cast<uint64_t>(end - outcome) < k) {
      overrun = true;
      outcome = end;
      return weight;
    }
    weight.ok = 0;
    if (!unit.failed) {
      for (uint64_t i = 0; i < k; ++i) weight.ok += outcome[i].ok ? 1 : 0;
    }
    outcome += k;
    return weight;
  });
  LSBENCH_RETURN_IF_ERROR(folded);
  if (overrun || outcome != end) {
    uint64_t kept = 0;
    for (const OpEvent& unit : shard.units) {
      if (UnitHasOutcomes(unit)) kept += unit.batch;
    }
    return Status::InvalidArgument(
        "the units keep " + std::to_string(kept) +
        " element outcomes, but the shard holds " +
        std::to_string(shard.outcomes.size()));
  }
  return Status::OK();
}

void ShardAccumulation::Merge(const ShardAccumulation& other) {
  LSBENCH_ASSERT(other.phases.size() == phases.size() &&
                 other.sla_nanos == sla_nanos);
  operations += other.operations;
  ok_operations += other.ok_operations;
  sla_violations += other.sla_violations;
  failed_operations += other.failed_operations;
  timeouts += other.timeouts;
  shed_operations += other.shed_operations;
  total_retries += other.total_retries;
  attempts += other.attempts;
  queue_shed_units += other.queue_shed_units;
  latency.Merge(other.latency);
  last_timestamp_nanos =
      std::max(last_timestamp_nanos, other.last_timestamp_nanos);
  open_loop_operations += other.open_loop_operations;
  queue_shed_operations += other.queue_shed_operations;
  response_latency.Merge(other.response_latency);
  service_latency.Merge(other.service_latency);
  queue_wait.Merge(other.queue_wait);
  intended_min_nanos = std::min(intended_min_nanos, other.intended_min_nanos);
  intended_max_nanos = std::max(intended_max_nanos, other.intended_max_nanos);
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    OpTypeMetrics& row = op_types[t];
    const OpTypeMetrics& add = other.op_types[t];
    row.operations += add.operations;
    row.ok_operations += add.ok_operations;
    row.failed_operations += add.failed_operations;
    row.latency.Merge(add.latency);
    row.effective_latency.Merge(add.effective_latency);
    row.batch_sum += add.batch_sum;
  }
  for (size_t p = 0; p < phases.size(); ++p) {
    PhaseAccumulation& phase = phases[p];
    const PhaseAccumulation& add = other.phases[p];
    phase.units += add.units;
    phase.operations += add.operations;
    phase.sla_violations += add.sla_violations;
    phase.failed_operations += add.failed_operations;
    phase.latency.Merge(add.latency);
    if (add.samples.size() > phase.samples.size()) {
      phase.samples.resize(add.samples.size());
    }
    for (size_t s = 0; s < add.samples.size(); ++s) {
      phase.samples[s] += add.samples[s];
    }
  }
  GrowBands(&bands, other.bands.size(), interval_nanos);
  for (size_t i = 0; i < other.bands.size(); ++i) {
    bands[i].within_sla += other.bands[i].within_sla;
    bands[i].violated += other.bands[i].violated;
  }
}

int64_t ResolveSla(const std::vector<const EventStream*>& shards,
                   const MetricsOptions& options, EventGrain grain) {
  if (options.sla_nanos > 0) return options.sla_nanos;
  size_t total = 0;
  for (const EventStream* shard : shards) total += shard->size();
  // Plain latencies while every phase-0 event is one element, so an
  // all-scalar run selects over doubles as CalibrateSla does; weighted
  // pairs from the first larger unit on.
  std::vector<double> latencies;
  std::vector<WeightedValue> weighted;
  latencies.reserve(total);
  for (const EventStream* shard : shards) {
    for (const OpEvent& e : *shard) {
      if (e.phase != 0) continue;
      const double latency = static_cast<double>(e.latency_nanos);
      const uint64_t elements =
          grain == EventGrain::kUnit ? UnitElements(e) : 1;
      if (elements == 1 && weighted.empty()) {
        latencies.push_back(latency);
        continue;
      }
      if (weighted.empty()) {
        weighted.reserve(total);
        for (const double l : latencies) weighted.push_back({l, 1});
        latencies = {};
      }
      weighted.push_back({latency, elements});
    }
  }
  if (weighted.empty()) {
    return CalibrateSla(std::move(latencies), options.sla_auto_percentile,
                        options.sla_auto_margin);
  }
  return SlaFromPercentile(
      WeightedQuantile(std::move(weighted), options.sla_auto_percentile),
      options.sla_auto_margin);
}

namespace {

/// Fig. 1a's box: throughput per box-plot sample, in ops/s. Every sample
/// but the last is full. The last is scaled by its actual duration, and
/// dropped when it covers too little of a sample to be a meaningful
/// throughput estimate (unless it is the only sample).
BoxPlotSummary SampleThroughputBox(const std::vector<uint64_t>& samples,
                                   const PhaseBoundary& boundary,
                                   int64_t sample_nanos) {
  std::vector<double> rates;
  if (samples.empty()) return ComputeBoxPlot(std::move(rates));
  const size_t last = samples.size() - 1;
  rates.reserve(samples.size());
  const double sample_seconds = static_cast<double>(sample_nanos) * 1e-9;
  for (size_t s = 0; s < last; ++s) {
    rates.push_back(static_cast<double>(samples[s]) / sample_seconds);
  }
  const int64_t last_start =
      boundary.start_nanos + static_cast<int64_t>(last) * sample_nanos;
  const double partial_seconds =
      static_cast<double>(boundary.end_nanos - last_start) * 1e-9;
  if (partial_seconds >= 0.2 * sample_seconds || rates.empty()) {
    rates.push_back(static_cast<double>(samples[last]) /
                    std::max(partial_seconds, 1e-9));
  }
  return ComputeBoxPlot(std::move(rates));
}

}  // namespace

RunMetrics FinalizeRunMetrics(const ShardAccumulation& acc,
                              const EventStream& events,
                              const MetricsOptions& options,
                              EventGrain grain) {
  LSBENCH_ASSERT_MSG(grain == EventGrain::kUnit ||
                         events.size() == acc.operations,
                     "the fold must cover exactly the merged stream");
  RunMetrics metrics;
  metrics.total_operations = acc.operations;
  if (acc.operations > 0) {
    metrics.wall_seconds =
        static_cast<double>(acc.last_timestamp_nanos) * 1e-9;
    if (metrics.wall_seconds > 0.0) {
      metrics.mean_throughput =
          static_cast<double>(acc.operations) / metrics.wall_seconds;
    }
  }
  const int64_t sla = acc.sla_nanos;
  metrics.sla_nanos = sla;
  metrics.overall_latency = acc.latency;
  metrics.total_sla_violations = acc.sla_violations;
  metrics.resilience.failed_operations = acc.failed_operations;
  metrics.resilience.timeouts = acc.timeouts;
  metrics.resilience.shed_operations = acc.shed_operations;
  metrics.resilience.total_retries = acc.total_retries;
  if (acc.operations > 0) {
    metrics.resilience.availability =
        static_cast<double>(acc.operations - acc.failed_operations) /
        static_cast<double>(acc.operations);
  }

  // Service-mode latency decomposition (enabled is an explicit spec echo
  // so a run with zero open-loop events still reports the section).
  ServiceMetrics& svc = metrics.service;
  svc.enabled = options.service_enabled;
  svc.policy = options.service_policy;
  svc.queue_capacity = options.service_queue_capacity;
  svc.slo_p99_nanos = options.service_slo_p99_nanos;
  svc.max_shed_fraction = options.service_max_shed_fraction;
  svc.response_latency = acc.response_latency;
  svc.service_latency = acc.service_latency;
  svc.queue_wait = acc.queue_wait;
  svc.open_loop_operations = acc.open_loop_operations;
  svc.queue_shed_operations = acc.queue_shed_operations;
  if (acc.open_loop_operations > 0) {
    svc.shed_fraction = static_cast<double>(acc.queue_shed_operations) /
                        static_cast<double>(acc.open_loop_operations);
    const int64_t span = acc.intended_max_nanos - acc.intended_min_nanos;
    if (span > 0) {
      svc.offered_qps = static_cast<double>(acc.open_loop_operations) /
                        (static_cast<double>(span) * 1e-9);
    }
  }
  if (metrics.wall_seconds > 0.0) {
    svc.achieved_qps =
        static_cast<double>(acc.ok_operations) / metrics.wall_seconds;
  }
  svc.shed_bound_met = svc.shed_fraction <= svc.max_shed_fraction;
  svc.slo_met = svc.slo_p99_nanos <= 0 ||
                svc.response_latency.P99() <=
                    static_cast<double>(svc.slo_p99_nanos);

  metrics.bands = acc.bands;
  metrics.cumulative = CurveFromBands(acc.bands, acc.interval_nanos);
  metrics.area_vs_ideal = AreaVsIdeal(metrics.cumulative);
  metrics.op_types = acc.op_types;

  const std::vector<PhaseBoundary>& boundaries = acc.boundaries;
  metrics.phases.resize(boundaries.size());
  uint64_t phase_operations = 0;
  for (size_t p = 0; p < boundaries.size(); ++p) {
    const PhaseBoundary& b = boundaries[p];
    const PhaseAccumulation& fold = acc.phases[p];
    PhaseMetrics& pm = metrics.phases[p];
    pm.phase = b.phase;
    pm.holdout = b.holdout;
    pm.operations = fold.operations;
    pm.duration_seconds =
        static_cast<double>(b.end_nanos - b.start_nanos) * 1e-9;
    if (pm.duration_seconds > 0.0) {
      pm.mean_throughput =
          static_cast<double>(pm.operations) / pm.duration_seconds;
    }
    pm.throughput_box =
        SampleThroughputBox(fold.samples, b, acc.boxplot_sample_nanos);
    pm.latency = fold.latency;
    pm.sla_violations = fold.sla_violations;
    pm.failed_operations = fold.failed_operations;
    phase_operations += fold.operations;
  }
  LSBENCH_ASSERT_MSG(phase_operations == acc.operations,
                     "every event must count under exactly one phase");

  // Adjustment speed: latency above the SLA over the first
  // adjustment_window_ops elements of each phase, summed in merged order,
  // one element at a time.
  std::vector<uint64_t> window(boundaries.size());
  uint64_t remaining = 0;
  for (size_t p = 0; p < boundaries.size(); ++p) {
    window[p] =
        std::min(options.adjustment_window_ops, acc.phases[p].operations);
    remaining += window[p];
  }
  size_t p = 0;
  for (size_t idx = 0; idx < events.size() && remaining > 0; ++idx) {
    const OpEvent& e = events[idx];
    if (p == boundaries.size() || boundaries[p].phase != e.phase) {
      p = FindPhase(boundaries, e.phase);
      LSBENCH_ASSERT(p < boundaries.size());
    }
    if (window[p] == 0) continue;
    const uint64_t elements = std::min<uint64_t>(
        window[p], grain == EventGrain::kUnit ? UnitElements(e) : 1);
    window[p] -= elements;
    remaining -= elements;
    if (e.latency_nanos > sla) {
      const double excess = static_cast<double>(e.latency_nanos - sla) * 1e-9;
      for (uint64_t i = 0; i < elements; ++i) {
        metrics.phases[p].adjustment_excess_seconds += excess;
      }
    }
  }
  return metrics;
}

RunMetrics ComputeRunMetrics(const EventStream& events,
                             const std::vector<PhaseBoundary>& boundaries,
                             const MetricsOptions& options) {
  ShardAccumulation acc(boundaries, options,
                        ResolveSla({&events}, options, EventGrain::kElement));
  const Status folded = acc.Accumulate(events);
  LSBENCH_ASSERT_MSG(folded.ok(), folded.message().c_str());
  return FinalizeRunMetrics(acc, events, options);
}

}  // namespace lsbench
