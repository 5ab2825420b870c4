#include "core/executor.h"

#include "util/assert.h"

namespace lsbench {

ResilientExecutor::ResilientExecutor(SystemUnderTest* sut,
                                     const ResilienceSpec& spec, Pacer pacer,
                                     uint64_t backoff_seed, Options options)
    : sut_(sut),
      spec_(spec),
      pacer_(pacer),
      backoff_(spec, backoff_seed),
      options_(options) {
  LSBENCH_ASSERT(sut != nullptr);
  if (spec.breaker_enabled) breaker_.emplace(spec);
  if (options.faults != nullptr) {
    faults_.emplace(*options.faults, options.worker, pacer);
  }
}

void ResilientExecutor::BindObservability(Tracer* tracer,
                                          StageProfiler* profiler,
                                          MetricsRegistry* registry) {
  tracer_ = tracer;
  profiler_ = profiler;
  if (registry != nullptr) {
    attempts_ = registry->GetCounter("executor.attempts");
    retries_ = registry->GetCounter("executor.retries");
    timeouts_ = registry->GetCounter("executor.timeouts");
    shed_ = registry->GetCounter("executor.shed");
    failures_ = registry->GetCounter("executor.failures");
    if (breaker_) {
      breaker_->BindObservability(registry->GetCounter("breaker.opens"),
                                  registry->GetCounter("breaker.closes"));
    }
  }
}

ExecOutcome ResilientExecutor::Execute(const Operation& op,
                                       int64_t arrival_rel_nanos,
                                       OpResult* results) {
  return Execute(VirtualExec{sut_}, op, arrival_rel_nanos, results);
}

}  // namespace lsbench
