// Extensibility example: plugging *your own* system under test into the
// LSBench driver. The paper requires the benchmark to avoid imposing
// architectural constraints on SUTs — the SystemUnderTest interface is four
// methods, shown here by wrapping a plain std::map as a (naive) engine with
// no learned components at all. Execute serves the scalar op classes only:
// batch classes go to ExecuteBatch, and its default body serves them
// element by element through Execute, so this SUT runs batch phases too.

#include <cstdio>
#include <map>

#include "core/driver.h"
#include "data/dataset.h"
#include "report/report.h"
#include "sut/sut.h"

namespace {

using namespace lsbench;

/// A minimal SUT: std::map storage, no statistics, no training, no
/// optimizer. RangeCount walks the ordered map directly.
class StdMapSystem final : public SystemUnderTest {
 public:
  std::string name() const override { return "stdmap_system"; }

  Status Load(const std::vector<KeyValue>& sorted_pairs) override {
    data_.clear();
    for (const auto& [k, v] : sorted_pairs) data_.emplace_hint(data_.end(), k, v);
    return Status::OK();
  }

  OpResult Execute(const Operation& op) override {
    OpResult result;
    switch (op.type) {
      case OpType::kGet: {
        const auto it = data_.find(op.key);
        result.ok = it != data_.end();
        result.rows = result.ok ? 1 : 0;
        break;
      }
      case OpType::kScan: {
        auto it = data_.lower_bound(op.key);
        for (uint32_t i = 0; i < op.scan_length && it != data_.end();
             ++i, ++it) {
          ++result.rows;
        }
        result.ok = true;
        break;
      }
      case OpType::kInsert:
      case OpType::kUpdate:
        data_[op.key] = op.value;
        result.ok = true;
        result.rows = 1;
        break;
      case OpType::kDelete:
        result.ok = data_.erase(op.key) > 0;
        result.rows = result.ok ? 1 : 0;
        break;
      case OpType::kRangeCount: {
        for (auto it = data_.lower_bound(op.key);
             it != data_.end() && it->first <= op.range_end; ++it) {
          ++result.rows;
        }
        result.ok = true;
        break;
      }
      case OpType::kBatchGet:
      case OpType::kBatchPut:
        // Never sent here: the driver hands batches to ExecuteBatch, whose
        // default unrolls them into kGet / kUpdate calls.
        break;
    }
    return result;
  }

  SutStats GetStats() const override {
    SutStats stats;
    stats.memory_bytes = data_.size() * (sizeof(Key) + sizeof(Value) +
                                         4 * sizeof(void*));
    return stats;
  }

 private:
  std::map<Key, Value> data_;
};

}  // namespace

int main() {
  using namespace lsbench;

  RunSpec spec;
  spec.name = "custom_sut_demo";
  DatasetOptions options;
  options.num_keys = 30000;
  spec.datasets.push_back(GenerateDataset(UniformUnit(), options));

  PhaseSpec phase;
  phase.name = "mixed";
  phase.mix.get = 0.6;
  phase.mix.insert = 0.2;
  phase.mix.scan = 0.1;
  phase.mix.range_count = 0.1;
  phase.num_operations = 40000;
  spec.phases.push_back(phase);

  StdMapSystem sut;
  BenchmarkDriver driver;
  const Result<RunResult> result = driver.Run(spec, &sut);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", RenderRunSummary(result.value()).c_str());
  std::printf(
      "=> any engine implementing Load/Execute/GetStats participates in\n"
      "   the benchmark; Train/OnPhaseStart are optional hooks.\n");
  return 0;
}
