#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/random.h"
#include "common/serde.h"
#include "index/btree.h"
#include "store/cluster.h"
#include "tx/catalog.h"
#include "tests/test_util.h"

namespace tell::index {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() {
    store::ClusterOptions cluster_options;
    cluster_options.num_storage_nodes = 3;
    cluster_ = std::make_unique<store::Cluster>(cluster_options);
    auto table = cluster_->CreateTable("idx");
    table_ = *table;
  }

  std::unique_ptr<store::StorageClient> MakeClient() {
    clocks_.push_back(std::make_unique<sim::VirtualClock>());
    metrics_.push_back(std::make_unique<sim::WorkerMetrics>());
    store::ClientOptions options;  // instant-ish network irrelevant here
    options.network = sim::NetworkModel::Instant();
    options.cpu.per_op_ns = 0;
    return std::make_unique<store::StorageClient>(
        cluster_.get(), nullptr, options, clocks_.back().get(),
        metrics_.back().get());
  }

  BTree MakeTree(uint32_t fanout = 8, bool cache = true) {
    BTreeOptions options;
    options.fanout = fanout;
    options.cache_inner_nodes = cache;
    return BTree(table_, options, &cache_);
  }

  std::unique_ptr<store::Cluster> cluster_;
  std::vector<std::unique_ptr<sim::VirtualClock>> clocks_;
  std::vector<std::unique_ptr<sim::WorkerMetrics>> metrics_;
  NodeCache cache_;
  store::TableId table_;
};

TEST_F(BTreeTest, InsertAndLookup) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree();
  ASSERT_OK(tree.Insert(client.get(), "apple", 1, false));
  ASSERT_OK(tree.Insert(client.get(), "banana", 2, false));
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       tree.Lookup(client.get(), "apple"));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], 1u);
  ASSERT_OK_AND_ASSIGN(rids, tree.Lookup(client.get(), "cherry"));
  EXPECT_TRUE(rids.empty());
}

TEST_F(BTreeTest, SplitsKeepAllKeysReachable) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/4);
  constexpr int kKeys = 500;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK(tree.Insert(client.get(), tell::EncodeOrderedU64(i),
                          static_cast<uint64_t>(i + 1), true));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t height, tree.Height(client.get()));
  EXPECT_GE(height, 3u);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         tree.Lookup(client.get(), tell::EncodeOrderedU64(i)));
    ASSERT_EQ(rids.size(), 1u) << "key " << i;
    EXPECT_EQ(rids[0], static_cast<uint64_t>(i + 1));
  }
}

TEST_F(BTreeTest, UniqueIndexRejectsDuplicateKey) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree();
  ASSERT_OK(tree.Insert(client.get(), "key", 1, true));
  EXPECT_TRUE(tree.Insert(client.get(), "key", 2, true).IsAlreadyExists());
  // Same (key, rid) is idempotent, not a violation.
  EXPECT_OK(tree.Insert(client.get(), "key", 1, true));
}

TEST_F(BTreeTest, NonUniqueIndexStoresDuplicates) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree();
  for (uint64_t rid = 1; rid <= 5; ++rid) {
    ASSERT_OK(tree.Insert(client.get(), "same", rid, false));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       tree.Lookup(client.get(), "same"));
  EXPECT_EQ(rids.size(), 5u);
}

TEST_F(BTreeTest, RemoveDeletesOnlyThatEntry) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree();
  ASSERT_OK(tree.Insert(client.get(), "k", 1, false));
  ASSERT_OK(tree.Insert(client.get(), "k", 2, false));
  ASSERT_OK(tree.Remove(client.get(), "k", 1));
  ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                       tree.Lookup(client.get(), "k"));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], 2u);
  // Removing an absent entry is a no-op.
  EXPECT_OK(tree.Remove(client.get(), "k", 99));
}

TEST_F(BTreeTest, RangeScanOrderedAndBounded) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(tree.Insert(client.get(), tell::EncodeOrderedU64(i),
                          static_cast<uint64_t>(i), true));
  }
  ASSERT_OK_AND_ASSIGN(
      std::vector<IndexEntry> entries,
      tree.RangeScan(client.get(), tell::EncodeOrderedU64(10), tell::EncodeOrderedU64(20),
                     0));
  ASSERT_EQ(entries.size(), 10u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].rid, 10 + i);
  }
}

TEST_F(BTreeTest, RangeScanWithLimit) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/4);
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(tree.Insert(client.get(), tell::EncodeOrderedU64(i),
                          static_cast<uint64_t>(i), true));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                       tree.RangeScan(client.get(), "", "", 7));
  EXPECT_EQ(entries.size(), 7u);
}

TEST_F(BTreeTest, ModelCheckAgainstStdMap) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree tree = MakeTree(/*fanout=*/6);
  std::multimap<std::string, uint64_t> model;
  Random rng(77);
  for (int op = 0; op < 3000; ++op) {
    std::string key = tell::EncodeOrderedU64(rng.Uniform(200));
    uint64_t rid = rng.Uniform(10) + 1;
    if (rng.Bernoulli(0.7)) {
      bool model_has = false;
      for (auto [it, end] = model.equal_range(key); it != end; ++it) {
        if (it->second == rid) model_has = true;
      }
      ASSERT_OK(tree.Insert(client.get(), key, rid, false));
      if (!model_has) model.emplace(key, rid);
    } else {
      ASSERT_OK(tree.Remove(client.get(), key, rid));
      for (auto [it, end] = model.equal_range(key); it != end; ++it) {
        if (it->second == rid) {
          model.erase(it);
          break;
        }
      }
    }
  }
  // Full scan must equal the model.
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> entries,
                       tree.RangeScan(client.get(), "", "", 0));
  ASSERT_EQ(entries.size(), model.size());
  auto it = model.begin();
  for (const IndexEntry& entry : entries) {
    EXPECT_EQ(entry.key, it->first);
    ++it;
  }
}

TEST_F(BTreeTest, ConcurrentInsertsAllSurvive) {
  auto setup_client = MakeClient();
  ASSERT_OK(BTree::Create(setup_client.get(), table_));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<store::StorageClient>> clients;
  std::vector<std::unique_ptr<NodeCache>> caches;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(MakeClient());
    caches.push_back(std::make_unique<NodeCache>());
  }
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BTreeOptions options;
      options.fanout = 8;
      BTree tree(table_, options, caches[static_cast<size_t>(t)].get());
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t key = static_cast<uint64_t>(t) * kPerThread +
                       static_cast<uint64_t>(i);
        ASSERT_TRUE(
            tree.Insert(clients[static_cast<size_t>(t)].get(),
                        tell::EncodeOrderedU64(key), key + 1, true)
                .ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Verify every key from a fresh handle.
  BTree tree = MakeTree(/*fanout=*/8);
  auto client = MakeClient();
  for (uint64_t key = 0; key < kThreads * kPerThread; ++key) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         tree.Lookup(client.get(), tell::EncodeOrderedU64(key)));
    ASSERT_EQ(rids.size(), 1u) << "key " << key;
    EXPECT_EQ(rids[0], key + 1);
  }
}

TEST_F(BTreeTest, StaleCacheRecoversAfterRemoteSplits) {
  auto client_a = MakeClient();
  auto client_b = MakeClient();
  ASSERT_OK(BTree::Create(client_a.get(), table_));
  NodeCache cache_a, cache_b;
  BTreeOptions options;
  options.fanout = 4;
  BTree tree_a(table_, options, &cache_a);
  BTree tree_b(table_, options, &cache_b);
  // PN A builds some structure and caches the inner nodes.
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_OK(tree_a.Insert(client_a.get(), tell::EncodeOrderedU64(i * 2), i, true));
  }
  ASSERT_OK(tree_a.Lookup(client_a.get(), tell::EncodeOrderedU64(10)).status());
  // PN B splits nodes underneath A's cache.
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_OK(
        tree_b.Insert(client_b.get(), tell::EncodeOrderedU64(i * 2 + 1), 100 + i,
                      true));
  }
  // A's stale cache must still find everything (right-links + refresh).
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<uint64_t> rids,
        tree_a.Lookup(client_a.get(), tell::EncodeOrderedU64(i * 2 + 1)));
    ASSERT_EQ(rids.size(), 1u) << "key " << i * 2 + 1;
    EXPECT_EQ(rids[0], 100 + i);
  }
}

TEST_F(BTreeTest, SharedCachedNodesStayValidUnderSplitsAndEvictions) {
  // Four workers share one two-entry node cache, so splits replace and the
  // LRU bound evicts nodes that other workers are still descending through.
  // A shared node must stay valid (its keys view its own payload) for as
  // long as anyone holds it. A poller reads the cache counters meanwhile.
  auto setup_client = MakeClient();
  ASSERT_OK(BTree::Create(setup_client.get(), table_));
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 250;
  NodeCache shared(/*max_entries=*/2);
  BTreeOptions options;
  options.fanout = 8;
  // The same tree opened through a TableRegistry, whose own caches feed
  // IndexCacheStats().
  tx::TableMeta meta;
  meta.name = "idx";
  meta.primary.store_table = table_;
  tx::TableRegistry registry;
  tx::TableHandle* handle = registry.Open(&meta, options);
  // Keys longer than the small-string buffer, like multi-column keys.
  auto key_of = [](uint64_t k) {
    return "key/" + tell::EncodeOrderedU64(k) + tell::EncodeOrderedU64(~k);
  };
  std::vector<std::unique_ptr<store::StorageClient>> clients;
  for (int t = 0; t < kThreads; ++t) clients.push_back(MakeClient());
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::thread poller([&] {
    uint64_t last_hits = 0;
    while (!done.load()) {
      NodeCacheStats s = shared.stats();
      NodeCacheStats r = registry.IndexCacheStats();
      if (s.entries > shared.max_entries() || r.hits < last_hits) {
        failures += 1;
      }
      last_hits = r.hits;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      store::StorageClient* client = clients[static_cast<size_t>(t)].get();
      BTree tree(table_, options, &shared);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = i * kThreads + static_cast<uint64_t>(t);
        if (!tree.Insert(client, key_of(k), k + 1, true).ok()) failures += 1;
        // Look up an earlier key of this worker through both caches.
        uint64_t back = (i / 2) * kThreads + static_cast<uint64_t>(t);
        for (BTree* reader : {&tree, &handle->primary}) {
          auto rids = reader->Lookup(client, key_of(back));
          if (!rids.ok() || rids->size() != 1 || (*rids)[0] != back + 1) {
            failures += 1;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done = true;
  poller.join();
  EXPECT_EQ(failures.load(), 0);
  BTree tree(table_, options, &shared);
  auto client = MakeClient();
  for (uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> rids,
                         tree.Lookup(client.get(), key_of(k)));
    ASSERT_EQ(rids.size(), 1u) << "key " << k;
    EXPECT_EQ(rids[0], k + 1);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<IndexEntry> all,
                       tree.RangeScan(client.get(), "", "", 0));
  EXPECT_EQ(all.size(), kThreads * kPerThread);
  NodeCacheStats stats = shared.stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(registry.IndexCacheStats().hits, 0u);
}

TEST_F(BTreeTest, CachingReducesStorageRequests) {
  auto client = MakeClient();
  ASSERT_OK(BTree::Create(client.get(), table_));
  BTree cached = MakeTree(/*fanout=*/8, /*cache=*/true);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_OK(cached.Insert(client.get(), tell::EncodeOrderedU64(i), i + 1, true));
  }
  auto measure = [&](BTree* tree) {
    auto c = MakeClient();
    uint64_t before = metrics_.back()->storage_requests;
    for (uint64_t i = 0; i < 200; ++i) {
      EXPECT_TRUE(tree->Lookup(c.get(), tell::EncodeOrderedU64(i)).ok());
    }
    return metrics_.back()->storage_requests - before;
  };
  NodeCache warm_cache;
  BTreeOptions with_cache;
  with_cache.fanout = 8;
  BTree tree_cached(table_, with_cache, &warm_cache);
  uint64_t cached_requests = measure(&tree_cached);

  BTreeOptions without;
  without.fanout = 8;
  without.cache_inner_nodes = false;
  BTree tree_uncached(table_, without, nullptr);
  uint64_t uncached_requests = measure(&tree_uncached);
  EXPECT_LT(cached_requests, uncached_requests);
}

}  // namespace
}  // namespace tell::index
