#ifndef LSBENCH_INDEX_BTREE_H_
#define LSBENCH_INDEX_BTREE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "index/kv_index.h"

namespace lsbench {

/// In-memory B+-tree: the "traditional, manually engineered" index baseline
/// every learned SUT is compared against. Keys live only in leaves; leaves
/// are chained for range scans; internal nodes hold separator keys. Supports
/// point ops, scans, bottom-up bulk loading, and full delete rebalancing
/// (borrow from siblings, merge, root collapse).
class BTree final : public KvIndex {
 public:
  /// `fanout` is the max number of keys per node (leaf and internal alike).
  /// Must be >= 4; defaults to a cache-friendly 64.
  explicit BTree(int fanout = 64);
  ~BTree() override;

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  std::string name() const override { return "btree"; }
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

  /// Tree height (1 = root is a leaf). 0 when empty.
  int Height() const;

  /// Verifies every structural invariant (sorted keys, separator
  /// correctness, occupancy bounds, leaf-chain consistency, size). Intended
  /// for tests; aborts via LSBENCH_ASSERT on violation.
  void CheckInvariants() const;

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;

  /// Result of an insert that split a node: the new right sibling plus the
  /// separator key (smallest key in the right sibling).
  struct SplitResult {
    Key separator;
    Node* right;
  };

  /// The one body of both bulk loads (View: index/kv_index.h).
  template <typename View>
  void BulkLoadFrom(const View& view);
  const LeafNode* FindLeaf(Key key) const;
  bool InsertRec(Node* node, Key key, Value value,
                 std::optional<SplitResult>* split);
  bool EraseRec(Node* node, Key key, bool* underflow);
  void FixChildUnderflow(InternalNode* parent, int child_idx);
  static void DeleteSubtree(Node* node);
  void CheckNode(const Node* node, Key lower, bool has_lower, Key upper,
                 bool has_upper, int depth, int leaf_depth,
                 size_t* entry_count,
                 std::vector<const LeafNode*>* leaves_in_order) const;

  int fanout_;
  int min_keys_;  ///< fanout_ / 2 — underflow threshold for non-root nodes.
  Node* root_ = nullptr;
  size_t size_ = 0;
  size_t leaf_count_ = 0;
  size_t internal_count_ = 0;
};

}  // namespace lsbench

#endif  // LSBENCH_INDEX_BTREE_H_
