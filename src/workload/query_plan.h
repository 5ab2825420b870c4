#ifndef LSBENCH_WORKLOAD_QUERY_PLAN_H_
#define LSBENCH_WORKLOAD_QUERY_PLAN_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "workload/operation.h"

namespace lsbench {

/// Minimal logical plan tree. The paper (§V-D1) proposes estimating
/// workload similarity as the Jaccard similarity "between the sets of all
/// subtrees of the query tree for all queries in the workload"; these trees
/// exist so that similarity is computed on real plan structure instead of
/// opaque operation labels.
struct PlanNode {
  enum class Kind {
    kTableScan,
    kIndexProbe,
    kIndexRange,
    kFilter,
    kLimit,
    kAggregateCount,
    kMutatePut,
    kMutateDelete,
  };

  Kind kind;
  /// Coarse parameter bucket (key-space decile, log2 of scan length, ...)
  /// so that structurally identical queries over very different parameters
  /// hash differently, but nearby parameters collide.
  int param_bucket = 0;
  std::vector<std::unique_ptr<PlanNode>> children;

  PlanNode(Kind k, int bucket) : kind(k), param_bucket(bucket) {}
};

/// Builds the canonical plan tree for an operation. `domain_max` is used to
/// bucket keys into deciles of the key space.
std::unique_ptr<PlanNode> BuildPlan(const Operation& op, Key domain_max);

/// Structural hash of a subtree (kind, bucket, children hashes in order).
uint64_t HashPlanSubtree(const PlanNode& node);

/// Appends the hash of every subtree of `node` (including itself) to `out`.
void CollectSubtreeHashes(const PlanNode& node,
                          std::unordered_set<uint64_t>* out);

/// The Jaccard fingerprint of a workload: the set of all plan-subtree hashes
/// over a sample of its operations.
class WorkloadSignature {
 public:
  void AddOperation(const Operation& op, Key domain_max);

  const std::unordered_set<uint64_t>& subtree_hashes() const {
    return hashes_;
  }
  size_t size() const { return hashes_.size(); }

  /// Jaccard similarity with another signature, in [0, 1].
  double Similarity(const WorkloadSignature& other) const;

 private:
  std::unordered_set<uint64_t> hashes_;
};

}  // namespace lsbench

#endif  // LSBENCH_WORKLOAD_QUERY_PLAN_H_
