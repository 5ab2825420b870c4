#include "index/btree.h"

#include <algorithm>

#include "util/assert.h"

namespace lsbench {

struct BTree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  bool is_leaf;
};

struct BTree::LeafNode : BTree::Node {
  LeafNode() : Node(true) {}
  std::vector<Key> keys;
  std::vector<Value> values;
  LeafNode* next = nullptr;
  LeafNode* prev = nullptr;
};

struct BTree::InternalNode : BTree::Node {
  InternalNode() : Node(false) {}
  std::vector<Key> keys;          // Separators; keys[i] <= all of children[i+1].
  std::vector<Node*> children;    // children.size() == keys.size() + 1.
};

// The nested node types are private, so downcast helpers live as local
// macros used only inside member functions.
#define LEAF(n) static_cast<LeafNode*>(n)
#define INTERNAL(n) static_cast<InternalNode*>(n)
#define CLEAF(n) static_cast<const LeafNode*>(n)
#define CINTERNAL(n) static_cast<const InternalNode*>(n)

BTree::BTree(int fanout) : fanout_(fanout), min_keys_(fanout / 2) {
  LSBENCH_ASSERT(fanout_ >= 4);
}

BTree::~BTree() { DeleteSubtree(root_); }

void BTree::DeleteSubtree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    for (Node* child : INTERNAL(node)->children) DeleteSubtree(child);
    delete INTERNAL(node);
  } else {
    delete LEAF(node);
  }
}

const BTree::LeafNode* BTree::FindLeaf(Key key) const {
  const Node* node = root_;
  if (node == nullptr) return nullptr;
  while (!node->is_leaf) {
    const InternalNode* in = CINTERNAL(node);
    const size_t idx =
        std::upper_bound(in->keys.begin(), in->keys.end(), key) -
        in->keys.begin();
    node = in->children[idx];
  }
  return CLEAF(node);
}

std::optional<Value> BTree::Get(Key key) const {
  const LeafNode* leaf = FindLeaf(key);
  if (leaf == nullptr) return std::nullopt;
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || *it != key) return std::nullopt;
  return leaf->values[it - leaf->keys.begin()];
}

bool BTree::Insert(Key key, Value value) {
  if (root_ == nullptr) {
    auto* leaf = new LeafNode();
    leaf->keys.push_back(key);
    leaf->values.push_back(value);
    root_ = leaf;
    leaf_count_ = 1;
    size_ = 1;
    return true;
  }
  std::optional<SplitResult> split;
  const bool inserted = InsertRec(root_, key, value, &split);
  if (split.has_value()) {
    auto* new_root = new InternalNode();
    new_root->keys.push_back(split->separator);
    new_root->children.push_back(root_);
    new_root->children.push_back(split->right);
    root_ = new_root;
    ++internal_count_;
  }
  if (inserted) ++size_;
  return inserted;
}

bool BTree::InsertRec(Node* node, Key key, Value value,
                      std::optional<SplitResult>* split) {
  split->reset();
  if (node->is_leaf) {
    LeafNode* leaf = LEAF(node);
    const auto it =
        std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
    const size_t pos = it - leaf->keys.begin();
    if (it != leaf->keys.end() && *it == key) {
      leaf->values[pos] = value;  // Overwrite.
      return false;
    }
    leaf->keys.insert(it, key);
    leaf->values.insert(leaf->values.begin() + pos, value);
    if (static_cast<int>(leaf->keys.size()) > fanout_) {
      const size_t mid = leaf->keys.size() / 2;
      auto* right = new LeafNode();
      right->keys.assign(leaf->keys.begin() + mid, leaf->keys.end());
      right->values.assign(leaf->values.begin() + mid, leaf->values.end());
      leaf->keys.resize(mid);
      leaf->values.resize(mid);
      right->next = leaf->next;
      right->prev = leaf;
      if (leaf->next != nullptr) leaf->next->prev = right;
      leaf->next = right;
      ++leaf_count_;
      *split = SplitResult{right->keys.front(), right};
    }
    return true;
  }

  InternalNode* in = INTERNAL(node);
  const size_t idx =
      std::upper_bound(in->keys.begin(), in->keys.end(), key) -
      in->keys.begin();
  std::optional<SplitResult> child_split;
  const bool inserted = InsertRec(in->children[idx], key, value, &child_split);
  if (child_split.has_value()) {
    in->keys.insert(in->keys.begin() + idx, child_split->separator);
    in->children.insert(in->children.begin() + idx + 1, child_split->right);
    if (static_cast<int>(in->keys.size()) > fanout_) {
      const size_t mid = in->keys.size() / 2;
      const Key separator = in->keys[mid];
      auto* right = new InternalNode();
      right->keys.assign(in->keys.begin() + mid + 1, in->keys.end());
      right->children.assign(in->children.begin() + mid + 1,
                             in->children.end());
      in->keys.resize(mid);
      in->children.resize(mid + 1);
      ++internal_count_;
      *split = SplitResult{separator, right};
    }
  }
  return inserted;
}

bool BTree::Erase(Key key) {
  if (root_ == nullptr) return false;
  bool underflow = false;
  const bool erased = EraseRec(root_, key, &underflow);
  if (!erased) return false;
  --size_;
  // Collapse the root when it loses all separators or all entries.
  if (!root_->is_leaf && INTERNAL(root_)->keys.empty()) {
    Node* only_child = INTERNAL(root_)->children.front();
    delete INTERNAL(root_);
    --internal_count_;
    root_ = only_child;
  } else if (root_->is_leaf && LEAF(root_)->keys.empty()) {
    delete LEAF(root_);
    --leaf_count_;
    root_ = nullptr;
  }
  return true;
}

bool BTree::EraseRec(Node* node, Key key, bool* underflow) {
  *underflow = false;
  if (node->is_leaf) {
    LeafNode* leaf = LEAF(node);
    const auto it =
        std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
    if (it == leaf->keys.end() || *it != key) return false;
    const size_t pos = it - leaf->keys.begin();
    leaf->keys.erase(it);
    leaf->values.erase(leaf->values.begin() + pos);
    *underflow = static_cast<int>(leaf->keys.size()) < min_keys_;
    return true;
  }

  InternalNode* in = INTERNAL(node);
  const size_t idx =
      std::upper_bound(in->keys.begin(), in->keys.end(), key) -
      in->keys.begin();
  bool child_underflow = false;
  const bool erased = EraseRec(in->children[idx], key, &child_underflow);
  if (erased && child_underflow) {
    FixChildUnderflow(in, static_cast<int>(idx));
  }
  *underflow = static_cast<int>(in->keys.size()) < min_keys_;
  return erased;
}

void BTree::FixChildUnderflow(InternalNode* parent, int child_idx) {
  Node* child = parent->children[child_idx];
  Node* left = child_idx > 0 ? parent->children[child_idx - 1] : nullptr;
  Node* right = child_idx + 1 < static_cast<int>(parent->children.size())
                    ? parent->children[child_idx + 1]
                    : nullptr;

  if (child->is_leaf) {
    LeafNode* c = LEAF(child);
    // Borrow from the left sibling.
    if (left != nullptr &&
        static_cast<int>(LEAF(left)->keys.size()) > min_keys_) {
      LeafNode* l = LEAF(left);
      c->keys.insert(c->keys.begin(), l->keys.back());
      c->values.insert(c->values.begin(), l->values.back());
      l->keys.pop_back();
      l->values.pop_back();
      parent->keys[child_idx - 1] = c->keys.front();
      return;
    }
    // Borrow from the right sibling.
    if (right != nullptr &&
        static_cast<int>(LEAF(right)->keys.size()) > min_keys_) {
      LeafNode* r = LEAF(right);
      c->keys.push_back(r->keys.front());
      c->values.push_back(r->values.front());
      r->keys.erase(r->keys.begin());
      r->values.erase(r->values.begin());
      parent->keys[child_idx] = r->keys.front();
      return;
    }
    // Merge with a sibling (into the leftmost of the pair).
    LeafNode* dst;
    LeafNode* src;
    int separator_idx;
    if (left != nullptr) {
      dst = LEAF(left);
      src = c;
      separator_idx = child_idx - 1;
    } else {
      LSBENCH_ASSERT(right != nullptr);
      dst = c;
      src = LEAF(right);
      separator_idx = child_idx;
    }
    dst->keys.insert(dst->keys.end(), src->keys.begin(), src->keys.end());
    dst->values.insert(dst->values.end(), src->values.begin(),
                       src->values.end());
    dst->next = src->next;
    if (src->next != nullptr) src->next->prev = dst;
    parent->keys.erase(parent->keys.begin() + separator_idx);
    parent->children.erase(parent->children.begin() + separator_idx + 1);
    delete src;
    --leaf_count_;
    return;
  }

  InternalNode* c = INTERNAL(child);
  // Borrow from the left sibling: rotate through the parent separator.
  if (left != nullptr &&
      static_cast<int>(INTERNAL(left)->keys.size()) > min_keys_) {
    InternalNode* l = INTERNAL(left);
    c->keys.insert(c->keys.begin(), parent->keys[child_idx - 1]);
    parent->keys[child_idx - 1] = l->keys.back();
    l->keys.pop_back();
    c->children.insert(c->children.begin(), l->children.back());
    l->children.pop_back();
    return;
  }
  // Borrow from the right sibling.
  if (right != nullptr &&
      static_cast<int>(INTERNAL(right)->keys.size()) > min_keys_) {
    InternalNode* r = INTERNAL(right);
    c->keys.push_back(parent->keys[child_idx]);
    parent->keys[child_idx] = r->keys.front();
    r->keys.erase(r->keys.begin());
    c->children.push_back(r->children.front());
    r->children.erase(r->children.begin());
    return;
  }
  // Merge with a sibling.
  InternalNode* dst;
  InternalNode* src;
  int separator_idx;
  if (left != nullptr) {
    dst = INTERNAL(left);
    src = c;
    separator_idx = child_idx - 1;
  } else {
    LSBENCH_ASSERT(right != nullptr);
    dst = c;
    src = INTERNAL(right);
    separator_idx = child_idx;
  }
  dst->keys.push_back(parent->keys[separator_idx]);
  dst->keys.insert(dst->keys.end(), src->keys.begin(), src->keys.end());
  dst->children.insert(dst->children.end(), src->children.begin(),
                       src->children.end());
  parent->keys.erase(parent->keys.begin() + separator_idx);
  parent->children.erase(parent->children.begin() + separator_idx + 1);
  delete src;
  --internal_count_;
}

size_t BTree::Scan(Key from, size_t limit, std::vector<KeyValue>* out) const {
  const LeafNode* leaf = FindLeaf(from);
  if (leaf == nullptr) return 0;
  size_t appended = 0;
  size_t pos = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), from) -
               leaf->keys.begin();
  while (leaf != nullptr && appended < limit) {
    for (; pos < leaf->keys.size() && appended < limit; ++pos) {
      out->emplace_back(leaf->keys[pos], leaf->values[pos]);
      ++appended;
    }
    leaf = leaf->next;
    pos = 0;
  }
  return appended;
}

size_t BTree::MemoryBytes() const {
  // Estimate: per-entry payload plus per-node fixed overhead plus internal
  // separator/child arrays at typical ~75% occupancy.
  const size_t entry_bytes = size_ * (sizeof(Key) + sizeof(Value));
  const size_t leaf_overhead = leaf_count_ * (sizeof(LeafNode) + 32);
  const size_t internal_bytes =
      internal_count_ *
      (sizeof(InternalNode) +
       static_cast<size_t>(fanout_) * (sizeof(Key) + sizeof(Node*)));
  return entry_bytes + leaf_overhead + internal_bytes;
}

template <typename View>
void BTree::BulkLoadFrom(const View& view) {
  DeleteSubtree(root_);
  root_ = nullptr;
  size_ = 0;
  leaf_count_ = 0;
  internal_count_ = 0;
  const size_t n = view.size();
  if (n == 0) return;
  for (size_t i = 1; i < n; ++i) {
    LSBENCH_ASSERT_MSG(view.key(i - 1) < view.key(i),
                       "BulkLoad requires strictly ascending keys");
  }

  // Build the leaf level, targeting ~90% occupancy so subsequent inserts do
  // not split immediately; rebalance the final two leaves so none is below
  // min_keys_.
  const size_t target = std::max<size_t>(
      min_keys_, static_cast<size_t>(static_cast<double>(fanout_) * 0.9));
  std::vector<LeafNode*> leaves;
  size_t i = 0;
  while (i < n) {
    size_t take = std::min(target, n - i);
    const size_t remaining_after = n - i - take;
    if (remaining_after > 0 && remaining_after < static_cast<size_t>(min_keys_)) {
      // Shift entries so the final leaf meets the occupancy minimum.
      take -= (min_keys_ - remaining_after);
    }
    auto* leaf = new LeafNode();
    leaf->keys.reserve(take);
    leaf->values.reserve(take);
    for (size_t j = 0; j < take; ++j) {
      leaf->keys.push_back(view.key(i + j));
      leaf->values.push_back(view.value(i + j));
    }
    if (!leaves.empty()) {
      leaves.back()->next = leaf;
      leaf->prev = leaves.back();
    }
    leaves.push_back(leaf);
    i += take;
  }
  leaf_count_ = leaves.size();
  size_ = n;

  // Build internal levels bottom-up. Track (subtree-min-key, node).
  std::vector<std::pair<Key, Node*>> level;
  level.reserve(leaves.size());
  for (LeafNode* leaf : leaves) level.emplace_back(leaf->keys.front(), leaf);

  const size_t max_children = static_cast<size_t>(fanout_) + 1;
  const size_t min_children = static_cast<size_t>(min_keys_) + 1;
  while (level.size() > 1) {
    std::vector<std::pair<Key, Node*>> next_level;
    size_t j = 0;
    while (j < level.size()) {
      size_t take = std::min(max_children, level.size() - j);
      const size_t remaining_after = level.size() - j - take;
      if (remaining_after > 0 && remaining_after < min_children) {
        take -= (min_children - remaining_after);
      }
      auto* node = new InternalNode();
      node->children.reserve(take);
      node->keys.reserve(take - 1);
      for (size_t k = 0; k < take; ++k) {
        node->children.push_back(level[j + k].second);
        if (k > 0) node->keys.push_back(level[j + k].first);
      }
      ++internal_count_;
      next_level.emplace_back(level[j].first, node);
      j += take;
    }
    level = std::move(next_level);
  }
  root_ = level.front().second;
}

void BTree::BulkLoad(const std::vector<KeyValue>& sorted_pairs) {
  BulkLoadFrom(SortedPairsView{&sorted_pairs});
}

void BTree::BulkLoadKeys(std::span<const Key> sorted_keys,
                        Value first_value) {
  BulkLoadFrom(SortedKeysView{sorted_keys, first_value});
}

int BTree::Height() const {
  int h = 0;
  const Node* node = root_;
  while (node != nullptr) {
    ++h;
    if (node->is_leaf) break;
    node = CINTERNAL(node)->children.front();
  }
  return h;
}

void BTree::CheckNode(const Node* node, Key lower, bool has_lower, Key upper,
                      bool has_upper, int depth, int leaf_depth,
                      size_t* entry_count,
                      std::vector<const LeafNode*>* leaves_in_order) const {
  if (node->is_leaf) {
    const LeafNode* leaf = CLEAF(node);
    LSBENCH_ASSERT_MSG(depth == leaf_depth, "all leaves at equal depth");
    LSBENCH_ASSERT(leaf->keys.size() == leaf->values.size());
    if (node != root_) {
      LSBENCH_ASSERT_MSG(
          static_cast<int>(leaf->keys.size()) >= min_keys_,
          "leaf occupancy");
    }
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      if (i > 0) LSBENCH_ASSERT(leaf->keys[i - 1] < leaf->keys[i]);
      if (has_lower) LSBENCH_ASSERT(leaf->keys[i] >= lower);
      if (has_upper) LSBENCH_ASSERT(leaf->keys[i] < upper);
    }
    *entry_count += leaf->keys.size();
    leaves_in_order->push_back(leaf);
    return;
  }
  const InternalNode* in = CINTERNAL(node);
  LSBENCH_ASSERT(in->children.size() == in->keys.size() + 1);
  if (node != root_) {
    LSBENCH_ASSERT_MSG(static_cast<int>(in->keys.size()) >= min_keys_,
                       "internal occupancy");
  } else {
    LSBENCH_ASSERT_MSG(!in->keys.empty(), "internal root has a separator");
  }
  for (size_t i = 0; i < in->keys.size(); ++i) {
    if (i > 0) LSBENCH_ASSERT(in->keys[i - 1] < in->keys[i]);
    if (has_lower) LSBENCH_ASSERT(in->keys[i] >= lower);
    if (has_upper) LSBENCH_ASSERT(in->keys[i] < upper);
  }
  for (size_t i = 0; i < in->children.size(); ++i) {
    const bool child_has_lower = i > 0 || has_lower;
    const Key child_lower = i > 0 ? in->keys[i - 1] : lower;
    const bool child_has_upper = i < in->keys.size() || has_upper;
    const Key child_upper = i < in->keys.size() ? in->keys[i] : upper;
    CheckNode(in->children[i], child_lower, child_has_lower, child_upper,
              child_has_upper, depth + 1, leaf_depth, entry_count,
              leaves_in_order);
  }
}

void BTree::CheckInvariants() const {
  if (root_ == nullptr) {
    LSBENCH_ASSERT(size_ == 0);
    LSBENCH_ASSERT(leaf_count_ == 0);
    LSBENCH_ASSERT(internal_count_ == 0);
    return;
  }
  const int leaf_depth = Height() - 1;
  size_t entry_count = 0;
  std::vector<const LeafNode*> leaves;
  CheckNode(root_, 0, false, 0, false, 0, leaf_depth, &entry_count, &leaves);
  LSBENCH_ASSERT_MSG(entry_count == size_, "size bookkeeping");
  LSBENCH_ASSERT_MSG(leaves.size() == leaf_count_, "leaf count bookkeeping");
  // The leaf chain must visit exactly the leaves, in order.
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (i > 0) {
      LSBENCH_ASSERT(leaves[i - 1]->next == leaves[i]);
      LSBENCH_ASSERT(leaves[i]->prev == leaves[i - 1]);
      LSBENCH_ASSERT(leaves[i - 1]->keys.back() < leaves[i]->keys.front());
    }
  }
  LSBENCH_ASSERT(leaves.front()->prev == nullptr);
  LSBENCH_ASSERT(leaves.back()->next == nullptr);
}

#undef LEAF
#undef INTERNAL
#undef CLEAF
#undef CINTERNAL

}  // namespace lsbench
