#include "benchmark/workloads.h"

#include <algorithm>

#include "data/dataset.h"
#include "data/distribution.h"
#include "index/btree.h"
#include "learned/rmi.h"
#include "sut/concurrent_kv.h"
#include "sut/systems.h"

namespace lsbench {
namespace bm {
namespace {

// Sizes. Each comment says what the size is chosen to guarantee.

// 65,536 keys x 16 B = 1 MiB of pairs: fits in L2, so the index is cheap
// and harness cost (record, merge, metrics) dominates. The two workers
// contend for SerializingSut, so a repetition's latency now and then lands
// in a second mode; short repetitions let a run take the median of many.
constexpr uint64_t kCachedKeys = uint64_t{1} << 16;
constexpr uint64_t kCachedUnits = uint64_t{1} << 13;
constexpr uint32_t kCachedBatch = 256;

// 14,000,000 keys x 16 B = 214 MiB of pairs, just over twice a 105 MiB L3:
// every lookup misses cache inside the learned index. No more keys, and
// no more lookups, than that: generating the keys is most of the set-up,
// which every repetition pays, so the lookups are kept short beside it.
constexpr uint64_t kDramKeys = 14000000;
constexpr uint64_t kDramUnits = uint64_t{1} << 11;
constexpr uint32_t kDramBatch = 256;

// One million keys per drift step; phase 2 is twice phase 1 so the
// retrains triggered by the shift are a fixed part of the run.
constexpr uint64_t kDriftKeys = 1000000;
constexpr uint64_t kDriftPhase1Ops = 500000;
constexpr uint64_t kDriftPhase2Ops = 1000000;

// 200k requests/s over 2 workers with 16-element batch gets is about 500k
// elements/s, well under what the partitioned B-trees serve. A queue of
// 4096 per worker absorbs a 40 ms stall, so a noisy host sheds nothing.
constexpr uint64_t kOpenKeys = 1000000;
constexpr uint64_t kOpenRequests = 400000;
constexpr double kOpenQps = 200000.0;
constexpr uint32_t kOpenBatch = 16;
constexpr uint32_t kOpenQueue = 4096;
constexpr size_t kOpenPartitions = 16;

uint64_t Scaled(uint64_t full, uint64_t scale) {
  return std::max<uint64_t>(1, full / scale);
}

Dataset MakeDataset(const UnitDistribution& dist, uint64_t num_keys,
                    uint64_t seed) {
  DatasetOptions options;
  options.num_keys = num_keys;
  options.seed = seed;
  return GenerateDataset(dist, options);
}

RunSpec BaseSpec(const char* name, uint64_t seed, uint32_t workers) {
  RunSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.execution.workers = workers;
  spec.offline_training = true;
  return spec;
}

PhaseSpec ClosedLoopPhase(const char* name, uint64_t units) {
  PhaseSpec phase;
  phase.name = name;
  phase.num_operations = units;
  phase.arrival = ArrivalPattern::kClosedLoop;
  return phase;
}

RunSpec CachedBatchSpec(uint64_t seed, uint64_t scale) {
  RunSpec spec = BaseSpec("cached_batch", seed, 2);
  spec.datasets.push_back(
      MakeDataset(UniformUnit(), Scaled(kCachedKeys, scale), seed));
  PhaseSpec phase = ClosedLoopPhase("batch", Scaled(kCachedUnits, scale));
  phase.mix.get = 0.0;
  phase.mix.batch_get = 0.9;
  phase.mix.batch_put = 0.1;
  phase.batch_size = kCachedBatch;
  phase.access = AccessPattern::kUniform;
  spec.phases.push_back(phase);
  return spec;
}

RunSpec DramReadSpec(uint64_t seed, uint64_t scale) {
  RunSpec spec = BaseSpec("dram_read", seed, 1);
  spec.datasets.push_back(
      MakeDataset(LognormalUnit(0.0, 1.5), Scaled(kDramKeys, scale), seed));
  PhaseSpec phase = ClosedLoopPhase("read", Scaled(kDramUnits, scale));
  phase.mix.get = 0.0;
  phase.mix.batch_get = 1.0;
  phase.batch_size = kDramBatch;
  phase.access = AccessPattern::kUniform;
  spec.phases.push_back(phase);
  return spec;
}

RunSpec DriftWriteSpec(uint64_t seed, uint64_t scale) {
  RunSpec spec = BaseSpec("drift_write", seed, 1);
  // The figure benches' drift family, uniform drifting toward six tight
  // clusters, cut to its two ends: the run jumps from one to the other, so
  // no intermediate step is generated.
  DatasetOptions options;
  options.num_keys = Scaled(kDriftKeys, scale);
  options.seed = seed;
  spec.datasets = GenerateDriftSequence(
      UniformUnit(), ClusteredUnit(6, 0.004, seed + 1), 2, options);

  PhaseSpec before = ClosedLoopPhase("steady", Scaled(kDriftPhase1Ops, scale));
  before.dataset_index = 0;
  before.mix.get = 0.9;
  before.mix.insert = 0.1;
  before.access = AccessPattern::kZipfian;
  spec.phases.push_back(before);

  PhaseSpec after = ClosedLoopPhase("shifted", Scaled(kDriftPhase2Ops, scale));
  after.dataset_index = 1;
  after.mix.get = 0.6;
  after.mix.insert = 0.4;
  after.access = AccessPattern::kZipfian;
  after.transition_in = TransitionKind::kAbrupt;
  spec.phases.push_back(after);
  return spec;
}

RunSpec OpenLoopSpec(uint64_t seed, uint64_t scale) {
  RunSpec spec = BaseSpec("open_loop", seed, 2);
  spec.datasets.push_back(
      MakeDataset(UniformUnit(), Scaled(kOpenKeys, scale), seed));
  spec.service.enabled = true;
  spec.service.queue_capacity = kOpenQueue;
  spec.service.policy = OverloadPolicy::kDropNewest;
  PhaseSpec phase;
  phase.name = "serve";
  phase.num_operations = Scaled(kOpenRequests, scale);
  phase.arrival = ArrivalPattern::kPoisson;
  phase.arrival_rate_qps = kOpenQps;
  phase.mix.get = 0.8;
  phase.mix.update = 0.1;
  phase.mix.batch_get = 0.1;
  phase.batch_size = kOpenBatch;
  phase.access = AccessPattern::kUniform;
  spec.phases.push_back(phase);
  return spec;
}

std::unique_ptr<SystemUnderTest> MakeBTreeSut(const Clock*) {
  return std::make_unique<BTreeSystem>();
}

std::unique_ptr<SystemUnderTest> MakeLearnedSut(const Clock* clock) {
  LearnedSystemOptions options;
  options.index_kind = LearnedSystemOptions::IndexKind::kRmi;
  options.retrain_policy = RetrainPolicy::kDriftTriggered;
  return std::make_unique<LearnedKvSystem>(options, clock);
}

std::unique_ptr<SystemUnderTest> MakePartitionedSut(const Clock*) {
  return std::make_unique<PartitionedKvSystem>(kOpenPartitions);
}

std::unique_ptr<KvIndex> MakeBTree() { return std::make_unique<BTree>(); }

std::unique_ptr<KvIndex> MakeRmi() {
  return std::make_unique<RmiIndex>(LearnedSystemOptions().rmi);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const auto* workloads = new std::vector<Workload>{
      {"cached_batch", true, &CachedBatchSpec, &MakeBTreeSut, &MakeBTree},
      {"dram_read", true, &DramReadSpec, &MakeLearnedSut, &MakeRmi},
      {"drift_write", false, &DriftWriteSpec, &MakeLearnedSut, &MakeRmi},
      {"open_loop", true, &OpenLoopSpec, &MakePartitionedSut, &MakeBTree},
  };
  return *workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace bm
}  // namespace lsbench
