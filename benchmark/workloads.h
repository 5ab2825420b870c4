#ifndef LSBENCH_BENCHMARK_WORKLOADS_H_
#define LSBENCH_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/run_spec.h"
#include "index/kv_index.h"
#include "sut/sut.h"
#include "util/clock.h"

namespace lsbench {
namespace bm {

/// One benchmark workload: the data it generates, the run it drives, and
/// the system it drives the run against. Workloads are defined in code
/// rather than spec text because dram_read needs more keys than the spec
/// grammar accepts.
struct Workload {
  std::string name;
  /// Every get and batch-get must find its key: reads only target loaded
  /// keys and nothing deletes them.
  bool reads_must_hit = false;
  /// Generates the datasets (the timed data-generation step) and builds
  /// the run over them. `scale` divides key and request counts: 1 is the
  /// measured size, the self-test runs at 100.
  RunSpec (*build_spec)(uint64_t seed, uint64_t scale) = nullptr;
  /// The system under test. `clock` times the SUT's own online training
  /// and must outlive it.
  std::unique_ptr<SystemUnderTest> (*make_sut)(const Clock* clock) = nullptr;
  /// The bare index the SUT serves gets from, for the standalone
  /// index.get_ns probe.
  std::unique_ptr<KvIndex> (*make_index)() = nullptr;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

}  // namespace bm
}  // namespace lsbench

#endif  // LSBENCH_BENCHMARK_WORKLOADS_H_
