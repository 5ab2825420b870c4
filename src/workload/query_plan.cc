#include "workload/query_plan.h"

#include <cmath>

#include "stats/similarity.h"

namespace lsbench {

namespace {

int KeyDecile(Key key, Key domain_max) {
  if (domain_max == 0) return 0;
  const double frac =
      static_cast<double>(key) / static_cast<double>(domain_max);
  int decile = static_cast<int>(frac * 10.0);
  if (decile > 9) decile = 9;
  if (decile < 0) decile = 0;
  return decile;
}

int Log2Bucket(uint64_t v) {
  int b = 0;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

std::unique_ptr<PlanNode> BuildPlan(const Operation& op, Key domain_max) {
  const int key_bucket = KeyDecile(op.key, domain_max);
  switch (op.type) {
    case OpType::kGet: {
      return std::make_unique<PlanNode>(PlanNode::Kind::kIndexProbe,
                                        key_bucket);
    }
    case OpType::kScan: {
      auto range = std::make_unique<PlanNode>(PlanNode::Kind::kIndexRange,
                                              key_bucket);
      auto limit = std::make_unique<PlanNode>(
          PlanNode::Kind::kLimit,
          Log2Bucket(std::max<uint64_t>(1, op.scan_length)));
      limit->children.push_back(std::move(range));
      return limit;
    }
    case OpType::kInsert:
    case OpType::kUpdate: {
      auto probe = std::make_unique<PlanNode>(PlanNode::Kind::kIndexProbe,
                                              key_bucket);
      auto put =
          std::make_unique<PlanNode>(PlanNode::Kind::kMutatePut, key_bucket);
      put->children.push_back(std::move(probe));
      return put;
    }
    case OpType::kDelete: {
      auto probe = std::make_unique<PlanNode>(PlanNode::Kind::kIndexProbe,
                                              key_bucket);
      auto del = std::make_unique<PlanNode>(PlanNode::Kind::kMutateDelete,
                                            key_bucket);
      del->children.push_back(std::move(probe));
      return del;
    }
    case OpType::kRangeCount: {
      // Count(Filter(range, TableScan)) — the shape an optimizer would
      // rewrite into an IndexRange when selective.
      const int width_bucket =
          op.range_end >= op.key
              ? Log2Bucket(std::max<uint64_t>(1, op.range_end - op.key))
              : 0;
      auto scan =
          std::make_unique<PlanNode>(PlanNode::Kind::kTableScan, 0);
      auto filter = std::make_unique<PlanNode>(PlanNode::Kind::kFilter,
                                               width_bucket / 8);
      filter->children.push_back(std::move(scan));
      auto agg = std::make_unique<PlanNode>(PlanNode::Kind::kAggregateCount,
                                            key_bucket);
      agg->children.push_back(std::move(filter));
      return agg;
    }
    case OpType::kBatchGet: {
      // Limit(batch-size bucket) over a probe: a multi-get's plan shape is
      // a bounded set of point lookups.
      auto probe = std::make_unique<PlanNode>(PlanNode::Kind::kIndexProbe,
                                              key_bucket);
      auto limit = std::make_unique<PlanNode>(
          PlanNode::Kind::kLimit,
          Log2Bucket(std::max<uint64_t>(1, op.batch_size)));
      limit->children.push_back(std::move(probe));
      return limit;
    }
    case OpType::kBatchPut: {
      auto probe = std::make_unique<PlanNode>(PlanNode::Kind::kIndexProbe,
                                              key_bucket);
      auto put = std::make_unique<PlanNode>(
          PlanNode::Kind::kMutatePut,
          Log2Bucket(std::max<uint64_t>(1, op.batch_size)));
      put->children.push_back(std::move(probe));
      return put;
    }
  }
  return std::make_unique<PlanNode>(PlanNode::Kind::kTableScan, 0);
}

uint64_t HashPlanSubtree(const PlanNode& node) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = MixHash(h, static_cast<uint64_t>(node.kind) + 1);
  h = MixHash(h, static_cast<uint64_t>(node.param_bucket) + 0x51);
  for (const auto& child : node.children) {
    h = MixHash(h, HashPlanSubtree(*child));
  }
  return h;
}

void CollectSubtreeHashes(const PlanNode& node,
                          std::unordered_set<uint64_t>* out) {
  out->insert(HashPlanSubtree(node));
  for (const auto& child : node.children) {
    CollectSubtreeHashes(*child, out);
  }
}

void WorkloadSignature::AddOperation(const Operation& op, Key domain_max) {
  const std::unique_ptr<PlanNode> plan = BuildPlan(op, domain_max);
  CollectSubtreeHashes(*plan, &hashes_);
}

double WorkloadSignature::Similarity(const WorkloadSignature& other) const {
  return JaccardSimilarity(hashes_, other.hashes_);
}

}  // namespace lsbench
