#include "index/btree.h"

#include <cstddef>
#include <algorithm>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/serde.h"

namespace tell::index {

namespace {

constexpr uint64_t kRootId = 1;
constexpr std::string_view kNextIdKey = "meta/next_id";
// Bounded retries: LL/SC failures retry from fresh reads; the bound only
// guards against bugs, not expected contention levels.
constexpr int kMaxRetries = 1024;
// Right-sibling hops tolerated before declaring the cached path stale.
constexpr int kMaxRightHops = 64;

std::string NodeKey(uint64_t id) { return tell::EncodeOrderedU64(id); }

}  // namespace

struct BTreeNode {
  /// One entry. The key views either the node's `payload` or, while a
  /// mutated copy is being built for Serialize(), a caller-owned key that
  /// outlives the call.
  struct Entry {
    std::string_view key;
    uint64_t rid = 0;
  };

  uint64_t id = 0;
  uint64_t stamp = 0;
  bool is_leaf = true;
  /// Distance from the leaf level (leaves are 0). A node's level never
  /// changes — except for the fixed-id root, which is rewritten in place one
  /// level higher on a root split; parent insertion therefore locates its
  /// target by LEVEL, not by remembered id (see InsertIntoParent).
  uint32_t level = 0;
  uint64_t right_sibling = 0;
  // Empty = +inf (only valid when right_sibling == 0).
  std::string_view high_key;
  std::vector<Entry> entries;
  /// The fetched bytes the views point into; shared by every copy.
  std::shared_ptr<const std::string> payload;

  std::string Serialize() const {
    BufferWriter writer;
    writer.PutU8(is_leaf ? 1 : 0);
    writer.PutU32(level);
    writer.PutU64(right_sibling);
    writer.PutString(high_key);
    writer.PutU32(static_cast<uint32_t>(entries.size()));
    for (const Entry& e : entries) {
      writer.PutString(e.key);
      writer.PutU64(e.rid);
    }
    return writer.Release();
  }

  static Result<BTreeNode> Deserialize(uint64_t id, store::VersionedCell cell) {
    BTreeNode node;
    node.id = id;
    node.stamp = cell.stamp;
    node.payload = std::make_shared<const std::string>(std::move(cell.value));
    BufferReader reader(*node.payload);
    TELL_ASSIGN_OR_RETURN(uint8_t is_leaf, reader.GetU8());
    node.is_leaf = is_leaf != 0;
    TELL_ASSIGN_OR_RETURN(node.level, reader.GetU32());
    TELL_ASSIGN_OR_RETURN(node.right_sibling, reader.GetU64());
    TELL_ASSIGN_OR_RETURN(node.high_key, reader.GetString());
    TELL_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
    node.entries.reserve(std::min<size_t>(count, reader.remaining() / 12 + 1));
    for (uint32_t i = 0; i < count; ++i) {
      Entry entry;
      TELL_ASSIGN_OR_RETURN(entry.key, reader.GetString());
      TELL_ASSIGN_OR_RETURN(entry.rid, reader.GetU64());
      node.entries.push_back(entry);
    }
    return node;
  }

  /// True if `key` belongs in this node's range ([_, high_key)).
  bool CoversKey(std::string_view key) const {
    return high_key.empty() || key < high_key;
  }

  /// Child id for `key` in an inner node; 0 if no entry qualifies (stale).
  uint64_t ChildFor(std::string_view key) const {
    uint64_t child = 0;
    for (const Entry& e : entries) {
      if (e.key <= key) {
        child = e.rid;
      } else {
        break;
      }
    }
    return child;
  }

  /// Sorted-insert position for (key, rid).
  size_t PositionFor(std::string_view key, uint64_t rid) const {
    return static_cast<size_t>(
        std::lower_bound(entries.begin(), entries.end(),
                         std::make_pair(key, rid),
                         [](const Entry& e,
                            const std::pair<std::string_view, uint64_t>& p) {
                           if (e.key != p.first) return e.key < p.first;
                           return e.rid < p.second;
                         }) -
        entries.begin());
  }
};

// --------------------------------------------------------------------------
// NodeCache

std::shared_ptr<const BTreeNode> NodeCache::Get(uint64_t node_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.node;
}

void NodeCache::Put(std::shared_ptr<const BTreeNode> node) {
  uint64_t node_id = node->id;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node_id);
  if (it != nodes_.end()) {
    it->second.node = std::move(node);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(node_id);
  nodes_[node_id] = {std::move(node), lru_.begin()};
  while (nodes_.size() > max_entries_) {
    nodes_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

void NodeCache::Erase(uint64_t node_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return;
  lru_.erase(it->second.lru_it);
  nodes_.erase(it);
}

void NodeCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  nodes_.clear();
  lru_.clear();
}

NodeCacheStats NodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {nodes_.size(), hits_, misses_, evictions_};
}

// --------------------------------------------------------------------------
// BTree

Status BTree::Create(store::StorageClient* client, store::TableId table) {
  Node root;
  root.id = kRootId;
  root.is_leaf = true;
  auto put = client->ConditionalPut(table, NodeKey(kRootId),
                                    store::kStampAbsent, root.Serialize());
  if (put.status().IsConditionFailed()) {
    return Status::AlreadyExists("index already initialized");
  }
  TELL_RETURN_NOT_OK(put.status());
  // Node id 1 is the root; the counter hands out 2, 3, ...
  auto counter = client->AtomicIncrement(table, kNextIdKey, 1);
  return counter.status();
}

Result<uint64_t> BTree::AllocateNodeId(store::StorageClient* client) {
  TELL_ASSIGN_OR_RETURN(int64_t id,
                        client->AtomicIncrement(table_, kNextIdKey, 1));
  return static_cast<uint64_t>(id) + 1;  // counter started at 1 = root
}

Result<BTree::Node> BTree::FetchNode(store::StorageClient* client,
                                     uint64_t node_id) {
  TELL_ASSIGN_OR_RETURN(store::VersionedCell cell,
                        client->Get(table_, NodeKey(node_id)));
  return Node::Deserialize(node_id, std::move(cell));
}

Result<BTree::NodePtr> BTree::ReadNode(store::StorageClient* client,
                                       uint64_t node_id, bool use_cache) {
  use_cache = use_cache && options_.cache_inner_nodes && cache_ != nullptr;
  if (use_cache) {
    if (NodePtr cached = cache_->Get(node_id)) return cached;
  }
  TELL_ASSIGN_OR_RETURN(Node node, FetchNode(client, node_id));
  auto shared = std::make_shared<const Node>(std::move(node));
  if (use_cache && !shared->is_leaf) cache_->Put(shared);
  return shared;
}

Result<BTree::NodePtr> BTree::DescendToLeaf(store::StorageClient* client,
                                            std::string_view key,
                                            std::vector<uint64_t>* path) {
  // Attempt 0 uses the inner-node cache; later attempts re-read everything.
  // Concurrent structure modifications can transiently derail even a fresh
  // descent, so retry a few times before declaring the tree corrupt.
  constexpr int kMaxAttempts = 16;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    bool use_cache = attempt == 0;
    path->clear();
    bool stale = false;
    int right_hops = 0;
    // The root is never cached as a leaf; read and inspect.
    TELL_ASSIGN_OR_RETURN(NodePtr node, ReadNode(client, kRootId, use_cache));
    while (true) {
      // B-link move right: a concurrent split may have shifted our key range
      // into a right sibling before the parent learned about it.
      while (!node->CoversKey(key)) {
        if (node->right_sibling == 0 || ++right_hops > kMaxRightHops) {
          stale = true;
          break;
        }
        TELL_ASSIGN_OR_RETURN(node,
                              ReadNode(client, node->right_sibling, false));
      }
      if (stale) break;
      if (node->is_leaf) {
        // Paper §5.3.1: a leaf that does not match its parent's expectation
        // means the cached path is outdated — refresh the parents.
        if (right_hops > 0 && cache_ != nullptr) {
          for (uint64_t id : *path) cache_->Erase(id);
        }
        return node;
      }
      uint64_t child = node->ChildFor(key);
      if (child == 0) {
        stale = true;
        break;
      }
      path->push_back(node->id);
      TELL_ASSIGN_OR_RETURN(node, ReadNode(client, child, use_cache));
    }
    // Stale cached structure: drop the whole cached path and retry fresh.
    if (cache_ != nullptr) {
      cache_->Erase(kRootId);
      for (uint64_t id : *path) cache_->Erase(id);
    }
  }
  return Status::InternalError("B+tree descent failed after " +
                               std::to_string(kMaxAttempts) +
                               " attempts (corrupt tree?)");
}

Status BTree::SplitNode(store::StorageClient* client, const Node& node,
                        const std::vector<uint64_t>& path) {
  size_t count = node.entries.size();
  TELL_CHECK(count >= 2);
  // Choose a split point that does not separate duplicates of one key
  // (duplicate keys must stay within one node's [low, high) range so that a
  // descent by key finds them all).
  size_t mid = count / 2;
  while (mid < count && node.entries[mid].key == node.entries[mid - 1].key) {
    ++mid;
  }
  if (mid == count) {
    mid = count / 2;
    while (mid > 1 && node.entries[mid].key == node.entries[mid - 1].key) {
      --mid;
    }
    if (mid <= 1) {
      // Every entry shares one key; the node cannot split — let it grow.
      return Status::NotSupported("node holds a single key; cannot split");
    }
  }
  // Views `node`'s payload, which outlives every put below.
  const std::string_view split_key = node.entries[mid].key;

  if (node.id == kRootId) {
    // Root split: the root id must stay fixed, so both halves move to fresh
    // nodes and the root is rewritten in place as their parent.
    TELL_ASSIGN_OR_RETURN(uint64_t left_id, AllocateNodeId(client));
    TELL_ASSIGN_OR_RETURN(uint64_t right_id, AllocateNodeId(client));
    Node right;
    right.id = right_id;
    right.is_leaf = node.is_leaf;
    right.level = node.level;
    right.right_sibling = node.right_sibling;
    right.high_key = node.high_key;
    right.entries.assign(node.entries.begin() + static_cast<ptrdiff_t>(mid),
                         node.entries.end());
    Node left;
    left.id = left_id;
    left.is_leaf = node.is_leaf;
    left.level = node.level;
    left.right_sibling = right_id;
    left.high_key = split_key;
    left.entries.assign(node.entries.begin(),
                        node.entries.begin() + static_cast<ptrdiff_t>(mid));
    TELL_RETURN_NOT_OK(client
                           ->ConditionalPut(table_, NodeKey(right_id),
                                            store::kStampAbsent,
                                            right.Serialize())
                           .status());
    TELL_RETURN_NOT_OK(client
                           ->ConditionalPut(table_, NodeKey(left_id),
                                            store::kStampAbsent,
                                            left.Serialize())
                           .status());
    Node new_root;
    new_root.id = kRootId;
    new_root.is_leaf = false;
    new_root.level = node.level + 1;
    new_root.right_sibling = node.right_sibling;
    new_root.high_key = node.high_key;
    new_root.entries.push_back({"", left_id});
    new_root.entries.push_back({split_key, right_id});
    auto put = client->ConditionalPut(table_, NodeKey(kRootId), node.stamp,
                                      new_root.Serialize());
    if (cache_ != nullptr) cache_->Erase(kRootId);
    // On ConditionFailed another worker raced us; the two fresh nodes become
    // unreachable garbage, which is benign.
    return put.status();
  }

  TELL_ASSIGN_OR_RETURN(uint64_t right_id, AllocateNodeId(client));
  Node right;
  right.id = right_id;
  right.is_leaf = node.is_leaf;
  right.level = node.level;
  right.right_sibling = node.right_sibling;
  right.high_key = node.high_key;
  right.entries.assign(node.entries.begin() + static_cast<ptrdiff_t>(mid),
                       node.entries.end());
  // 1. Publish the right half under a fresh id.
  TELL_RETURN_NOT_OK(client
                         ->ConditionalPut(table_, NodeKey(right_id),
                                          store::kStampAbsent,
                                          right.Serialize())
                         .status());
  // 2. Shrink the left half in place (the LL/SC step that linearizes the
  //    split; on failure the right node is abandoned garbage).
  Node left = node;
  left.right_sibling = right_id;
  left.high_key = split_key;
  left.entries.resize(mid);
  auto put = client->ConditionalPut(table_, NodeKey(node.id), node.stamp,
                                    left.Serialize());
  if (cache_ != nullptr) cache_->Erase(node.id);
  TELL_RETURN_NOT_OK(put.status());
  // 3. Tell the parent. Best effort: even if this is lost (e.g. the PN
  //    crashes), traversals reach the right node via the sibling link.
  return InsertIntoParent(client, path, split_key, right_id, node.level + 1);
}

Status BTree::InsertIntoParent(store::StorageClient* client,
                               const std::vector<uint64_t>& path,
                               std::string_view separator, uint64_t right_id,
                               uint32_t target_level) {
  TELL_CHECK(!path.empty());
  uint64_t start_id = path.back();
  std::vector<uint64_t> grandparents(path.begin(), path.end() - 1);
  for (int retry = 0; retry < kMaxRetries; ++retry) {
    TELL_ASSIGN_OR_RETURN(Node parent, FetchNode(client, start_id));
    bool restart_from_root = false;
    // The remembered parent may meanwhile sit ABOVE the target level: the
    // fixed-id root is rewritten in place one level higher on a root split.
    // Descend by level until we are at the separator's parent level —
    // inserting at any other level would corrupt the tree.
    int hops = 0;
    while (true) {
      while (!parent.CoversKey(separator)) {
        if (parent.right_sibling == 0) {
          // A rightmost node always covers up to +inf; this cannot happen.
          return Status::InternalError("separator key out of parent range");
        }
        if (++hops > kMaxRightHops) {
          // A storm of concurrent splits moved the target far right of the
          // remembered ancestor; restart the search from the root, which
          // descends close to the target directly.
          restart_from_root = true;
          break;
        }
        TELL_ASSIGN_OR_RETURN(parent, FetchNode(client, parent.right_sibling));
      }
      if (restart_from_root) break;
      if (parent.level == target_level) break;
      if (parent.level < target_level) {
        // The remembered ancestor is now BELOW the target (cannot happen —
        // levels only grow at the root); treat as fatal.
        return Status::InternalError("parent level below separator level");
      }
      uint64_t child = parent.ChildFor(separator);
      if (child == 0) {
        return Status::InternalError("no route to parent level");
      }
      TELL_ASSIGN_OR_RETURN(parent, FetchNode(client, child));
    }
    if (restart_from_root) {
      start_id = kRootId;
      continue;
    }
    // Already present (another worker completed this SMO for us)?
    for (const Node::Entry& e : parent.entries) {
      if (e.key == separator && e.rid == right_id) return Status::OK();
    }
    if (parent.entries.size() >= options_.fanout) {
      std::vector<uint64_t> parent_path =
          grandparents.empty() ? std::vector<uint64_t>{kRootId} : grandparents;
      Status split = SplitNode(client, parent, parent_path);
      if (!split.ok() && !split.IsConditionFailed() &&
          split.code() != StatusCode::kNotSupported) {
        return split;
      }
      continue;  // re-read and place the separator in the correct half
    }
    size_t pos = parent.PositionFor(separator, right_id);
    parent.entries.insert(parent.entries.begin() + static_cast<ptrdiff_t>(pos),
                          {separator, right_id});
    auto put = client->ConditionalPut(table_, NodeKey(parent.id), parent.stamp,
                                      parent.Serialize());
    if (cache_ != nullptr) cache_->Erase(parent.id);
    if (put.ok()) return Status::OK();
    if (!put.status().IsConditionFailed()) return put.status();
    // Lost the race; retry from a fresh read.
  }
  return Status::InternalError("parent insert retries exhausted");
}

Status BTree::Insert(store::StorageClient* client, std::string_view key,
                     uint64_t rid, bool unique) {
  for (int retry = 0; retry < kMaxRetries; ++retry) {
    std::vector<uint64_t> path;
    TELL_ASSIGN_OR_RETURN(NodePtr leaf, DescendToLeaf(client, key, &path));
    if (unique) {
      for (const Node::Entry& e : leaf->entries) {
        if (e.key == key && e.rid != rid) {
          return Status::AlreadyExists("duplicate key in unique index");
        }
      }
    }
    size_t pos = leaf->PositionFor(key, rid);
    if (pos < leaf->entries.size() && leaf->entries[pos].key == key &&
        leaf->entries[pos].rid == rid) {
      return Status::OK();  // idempotent
    }
    if (leaf->entries.size() >= options_.fanout) {
      Status split = SplitNode(client, *leaf, path);
      if (split.ok() || split.IsConditionFailed()) {
        continue;  // re-descend into the correct half
      }
      if (split.code() != StatusCode::kNotSupported) return split;
      // Unsplittable (all entries share one key): insert oversize below.
    }
    Node updated = *leaf;
    updated.entries.insert(
        updated.entries.begin() + static_cast<ptrdiff_t>(pos), {key, rid});
    auto put = client->ConditionalPut(table_, NodeKey(updated.id),
                                      updated.stamp, updated.Serialize());
    if (put.ok()) return Status::OK();
    if (!put.status().IsConditionFailed()) return put.status();
  }
  return Status::InternalError("B+tree insert retries exhausted");
}

Status BTree::Remove(store::StorageClient* client, std::string_view key,
                     uint64_t rid) {
  for (int retry = 0; retry < kMaxRetries; ++retry) {
    std::vector<uint64_t> path;
    TELL_ASSIGN_OR_RETURN(NodePtr leaf, DescendToLeaf(client, key, &path));
    size_t pos = leaf->PositionFor(key, rid);
    if (pos >= leaf->entries.size() || leaf->entries[pos].key != key ||
        leaf->entries[pos].rid != rid) {
      return Status::OK();  // absent — idempotent
    }
    Node updated = *leaf;
    updated.entries.erase(updated.entries.begin() +
                          static_cast<ptrdiff_t>(pos));
    auto put = client->ConditionalPut(table_, NodeKey(updated.id),
                                      updated.stamp, updated.Serialize());
    if (put.ok()) return Status::OK();
    if (!put.status().IsConditionFailed()) return put.status();
  }
  return Status::InternalError("B+tree remove retries exhausted");
}

Result<std::vector<uint64_t>> BTree::LookupRids(store::StorageClient* client,
                                                std::string_view key) {
  std::vector<uint64_t> path;
  TELL_ASSIGN_OR_RETURN(NodePtr leaf, DescendToLeaf(client, key, &path));
  std::vector<uint64_t> rids;
  for (const Node::Entry& e : leaf->entries) {
    if (e.key == key) rids.push_back(e.rid);
  }
  return rids;
}

Result<std::vector<uint64_t>> BTree::Lookup(store::StorageClient* client,
                                            std::string_view key) {
  client->metrics()->index_lookups += 1;
  return LookupRids(client, key);
}

Status BTree::BatchDescendToLeaves(store::StorageClient* client,
                                   const std::vector<std::string_view>& keys,
                                   std::vector<NodePtr>* leaves,
                                   std::vector<size_t>* leaf_of_key) {
  leaves->clear();
  leaf_of_key->assign(keys.size(), kNoLeaf);
  if (keys.empty()) return Status::OK();

  struct Cursor {
    size_t key_index;
    NodePtr node;
  };
  TELL_ASSIGN_OR_RETURN(NodePtr root, ReadNode(client, kRootId, true));
  std::vector<Cursor> active;
  active.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) active.push_back({i, root});
  // Distinct leaves reached so far: leaf id -> index into `leaves`.
  std::map<uint64_t, size_t> leaf_index;

  while (!active.empty()) {
    std::vector<std::pair<size_t, uint64_t>> wanted;  // (key index, child id)
    bool children_are_inner = false;
    for (Cursor& cursor : active) {
      std::string_view key = keys[cursor.key_index];
      if (!cursor.node->CoversKey(key)) continue;  // stale: stays kNoLeaf
      if (cursor.node->is_leaf) {
        auto [it, fresh] =
            leaf_index.try_emplace(cursor.node->id, leaves->size());
        if (fresh) leaves->push_back(std::move(cursor.node));
        (*leaf_of_key)[cursor.key_index] = it->second;
        continue;
      }
      uint64_t child = cursor.node->ChildFor(key);
      if (child == 0) continue;  // stale: stays kNoLeaf
      children_are_inner = cursor.node->level > 1;
      wanted.emplace_back(cursor.key_index, child);
    }
    active.clear();
    if (wanted.empty()) break;

    // Distinct children: cache first, the rest through one coalesced flush.
    // A null entry is a failed fetch.
    bool use_cache =
        children_are_inner && options_.cache_inner_nodes && cache_ != nullptr;
    std::map<uint64_t, NodePtr> nodes;
    std::vector<std::pair<uint64_t, Future<store::VersionedCell>>> fetches;
    for (const auto& [key_index, child] : wanted) {
      (void)key_index;
      // try_emplace reserves the slot, so the same child is fetched once.
      auto [it, fresh] = nodes.try_emplace(child);
      if (!fresh) continue;
      if (use_cache) it->second = cache_->Get(child);
      if (it->second == nullptr) {
        fetches.emplace_back(child, client->AsyncGet(table_, NodeKey(child)));
      }
    }
    client->Flush();
    for (auto& [child, future] : fetches) {
      auto cell = future.Await();
      if (!cell.ok()) continue;
      auto node = Node::Deserialize(child, std::move(*cell));
      if (!node.ok()) continue;
      auto shared = std::make_shared<const Node>(std::move(*node));
      if (options_.cache_inner_nodes && cache_ != nullptr && !shared->is_leaf) {
        cache_->Put(shared);
      }
      nodes[child] = std::move(shared);
    }

    for (const auto& [key_index, child] : wanted) {
      const NodePtr& node = nodes[child];
      if (node == nullptr) continue;  // failed fetch: stays kNoLeaf
      active.push_back({key_index, node});
    }
  }
  return Status::OK();
}

Result<std::vector<std::vector<uint64_t>>> BTree::BatchLookup(
    store::StorageClient* client, const std::vector<std::string>& keys) {
  client->metrics()->index_lookups += keys.size();
  std::vector<std::vector<uint64_t>> out(keys.size());
  if (keys.empty()) return out;
  if (!client->options().pipelining || keys.size() == 1) {
    for (size_t i = 0; i < keys.size(); ++i) {
      TELL_ASSIGN_OR_RETURN(out[i], LookupRids(client, keys[i]));
    }
    return out;
  }

  std::vector<NodePtr> leaves;
  std::vector<size_t> leaf_of_key;
  TELL_RETURN_NOT_OK(BatchDescendToLeaves(
      client, std::vector<std::string_view>(keys.begin(), keys.end()), &leaves,
      &leaf_of_key));
  for (size_t i = 0; i < keys.size(); ++i) {
    if (leaf_of_key[i] == kNoLeaf) {
      TELL_ASSIGN_OR_RETURN(out[i], LookupRids(client, keys[i]));
      continue;
    }
    for (const Node::Entry& e : leaves[leaf_of_key[i]]->entries) {
      if (e.key == keys[i]) out[i].push_back(e.rid);
    }
  }
  return out;
}

Status BTree::BatchInsert(store::StorageClient* client,
                          const std::vector<BatchInsertOp>& ops,
                          std::vector<bool>* inserted) {
  inserted->assign(ops.size(), false);
  auto serial = [&](size_t i) -> Status {
    Status st = Insert(client, ops[i].key, ops[i].rid, ops[i].unique);
    if (st.ok()) (*inserted)[i] = true;
    return st;
  };
  if (!client->options().pipelining || ops.size() < 2) {
    for (size_t i = 0; i < ops.size(); ++i) TELL_RETURN_NOT_OK(serial(i));
    return Status::OK();
  }

  std::vector<std::string_view> keys;
  keys.reserve(ops.size());
  for (const BatchInsertOp& op : ops) keys.push_back(op.key);
  std::vector<NodePtr> leaves;
  std::vector<size_t> leaf_of_key;
  TELL_RETURN_NOT_OK(BatchDescendToLeaves(client, keys, &leaves, &leaf_of_key));

  // Ops that need the serial Insert (stale path, full leaf, lost LL/SC).
  std::vector<size_t> fallback;
  std::map<size_t, std::vector<size_t>> groups;  // leaf index -> op indices
  for (size_t i = 0; i < ops.size(); ++i) {
    if (leaf_of_key[i] == kNoLeaf) {
      fallback.push_back(i);
    } else {
      groups[leaf_of_key[i]].push_back(i);
    }
  }

  // Prepare every leaf rewrite BEFORE issuing any put: a unique violation
  // must surface while there is still nothing to undo.
  struct LeafPut {
    uint64_t id = 0;
    uint64_t stamp = 0;
    std::string value;
    std::vector<size_t> op_indices;
  };
  std::vector<LeafPut> puts;
  for (auto& [leaf_idx, op_indices] : groups) {
    Node copy = *leaves[leaf_idx];
    bool overflow = false;
    std::vector<size_t> applied;
    for (size_t i : op_indices) {
      const BatchInsertOp& op = ops[i];
      if (op.unique) {
        for (const Node::Entry& e : copy.entries) {
          if (e.key == op.key && e.rid != op.rid) {
            return Status::AlreadyExists("duplicate key in unique index");
          }
        }
      }
      size_t pos = copy.PositionFor(op.key, op.rid);
      if (pos < copy.entries.size() && copy.entries[pos].key == op.key &&
          copy.entries[pos].rid == op.rid) {
        applied.push_back(i);  // already present — idempotent
        continue;
      }
      if (copy.entries.size() >= options_.fanout) {
        // The leaf must split; the serial Insert owns that machinery. Send
        // the whole group (its earlier ops included) down the serial path.
        overflow = true;
        break;
      }
      copy.entries.insert(copy.entries.begin() + static_cast<ptrdiff_t>(pos),
                          {op.key, op.rid});
      applied.push_back(i);
    }
    if (overflow) {
      for (size_t i : op_indices) fallback.push_back(i);
      continue;
    }
    puts.push_back({copy.id, copy.stamp, copy.Serialize(),
                    std::move(applied)});
  }

  // One conditional put per touched leaf, all through one pipeline window.
  std::vector<std::pair<size_t, Future<uint64_t>>> futures;
  futures.reserve(puts.size());
  for (size_t p = 0; p < puts.size(); ++p) {
    futures.emplace_back(
        p, client->AsyncConditionalPut(table_, NodeKey(puts[p].id),
                                       puts[p].stamp, puts[p].value));
  }
  client->Flush();
  Status failure;
  for (auto& [p, future] : futures) {
    auto put = future.Await();
    if (put.ok()) {
      for (size_t i : puts[p].op_indices) (*inserted)[i] = true;
    } else if (put.status().IsConditionFailed()) {
      // Lost the LL/SC race on this leaf; re-run its ops serially (the
      // serial Insert re-descends, re-checks uniqueness and is idempotent).
      for (size_t i : puts[p].op_indices) fallback.push_back(i);
    } else if (failure.ok()) {
      failure = put.status();
    }
  }
  if (!failure.ok()) return failure;

  std::sort(fallback.begin(), fallback.end());
  for (size_t i : fallback) TELL_RETURN_NOT_OK(serial(i));
  return Status::OK();
}

Result<std::vector<IndexEntry>> BTree::RangeScan(store::StorageClient* client,
                                                 std::string_view start,
                                                 std::string_view end,
                                                 size_t limit) {
  client->metrics()->index_lookups += 1;
  std::vector<uint64_t> path;
  TELL_ASSIGN_OR_RETURN(NodePtr first, DescendToLeaf(client, start, &path));
  const Node* leaf = first.get();
  Node sibling;
  std::vector<IndexEntry> out;
  while (true) {
    for (const Node::Entry& e : leaf->entries) {
      if (e.key < start) continue;
      if (!end.empty() && e.key >= end) return out;
      out.push_back({std::string(e.key), e.rid});
      if (limit != 0 && out.size() >= limit) return out;
    }
    if (leaf->right_sibling == 0) return out;
    if (!end.empty() && !leaf->high_key.empty() && leaf->high_key >= end) {
      return out;
    }
    TELL_ASSIGN_OR_RETURN(sibling, FetchNode(client, leaf->right_sibling));
    leaf = &sibling;
  }
}

Result<uint32_t> BTree::Height(store::StorageClient* client) {
  uint32_t height = 1;
  TELL_ASSIGN_OR_RETURN(Node node, FetchNode(client, kRootId));
  while (!node.is_leaf) {
    TELL_CHECK(!node.entries.empty());
    TELL_ASSIGN_OR_RETURN(node, FetchNode(client, node.entries.front().rid));
    ++height;
  }
  return height;
}

}  // namespace tell::index
