// Unit tests for the storage substrate: primary store, cache, write buffer.

#include <gtest/gtest.h>

#include "src/kv/cache_store.h"
#include "src/kv/versioned_store.h"
#include "src/kv/write_buffer.h"

namespace radical {
namespace {

// --- VersionedStore ------------------------------------------------------------

TEST(VersionedStoreTest, PutIncrementsVersion) {
  VersionedStore store;
  store.Put("k", Value("v1"), nullptr);
  EXPECT_EQ(store.VersionOf("k"), 1);
  store.Put("k", Value("v2"), nullptr);
  EXPECT_EQ(store.VersionOf("k"), 2);
  EXPECT_EQ(store.Peek("k")->value, Value("v2"));
}

TEST(VersionedStoreTest, MissingKeyHasSentinelVersion) {
  VersionedStore store;
  EXPECT_EQ(store.VersionOf("nope"), kMissingVersion);
  SimDuration lat = 0;
  EXPECT_FALSE(store.Get("nope", &lat).has_value());
  EXPECT_GT(lat, 0);  // A miss still costs a read.
}

TEST(VersionedStoreTest, LatencyAccounting) {
  VersionedStoreOptions options;
  options.read_latency = Millis(3);
  options.write_latency = Millis(5);
  VersionedStore store(options);
  SimDuration lat = 0;
  store.Put("k", Value("v"), &lat);
  EXPECT_EQ(lat, Millis(5));
  store.Get("k", &lat);
  EXPECT_EQ(lat, Millis(8));
}

TEST(VersionedStoreTest, BatchGetSingleRound) {
  VersionedStore store;
  store.Seed("a", Value("x"));
  store.Seed("b", Value("y"));
  SimDuration lat = 0;
  const std::vector<Item> items = store.BatchGet({"a", "b", "missing"}, &lat);
  EXPECT_EQ(items, (std::vector<Item>{{Value("x"), 1}, {Value("y"), 1},
                                      {Value(), kMissingVersion}}));
  EXPECT_EQ(lat, store.options().read_latency);  // One batch, one read cost.
  EXPECT_EQ(store.reads(), 0u);  // Validation reads are not function reads.
}

TEST(VersionedStoreTest, ApplyValidatedWriteSetsExactVersion) {
  VersionedStore store;
  store.Seed("k", Value("v1"));  // Version 1.
  store.ApplyValidatedWrite("k", Value("v2"), 1, nullptr);
  EXPECT_EQ(store.VersionOf("k"), 2);
  // New key validated at "missing": lands at version 0 (consistent with the
  // cache-side install of missing+1).
  store.ApplyValidatedWrite("fresh", Value("v"), kMissingVersion, nullptr);
  EXPECT_EQ(store.VersionOf("fresh"), 0);
}

TEST(VersionedStoreTest, ForEachItemVisitsAll) {
  VersionedStore store;
  store.Seed("a", Value("1"));
  store.Seed("b", Value("2"));
  int count = 0;
  store.ForEachItem([&](const Key& key, const Item& item) {
    (void)key;
    (void)item;
    ++count;
  });
  EXPECT_EQ(count, 2);
  EXPECT_EQ(store.item_count(), 2u);
}

// --- CacheStore -------------------------------------------------------------------

TEST(CacheStoreTest, InstallSetsExactVersion) {
  CacheStore cache;
  cache.Install("k", Value("v"), 7);
  EXPECT_EQ(cache.VersionOf("k"), 7);
  EXPECT_EQ(cache.Peek("k")->value, Value("v"));
}

TEST(CacheStoreTest, RefreshOnlyRaisesVersionsOfHeldKeys) {
  CacheStore cache;
  cache.Install("k", Value("v3"), 3);
  EXPECT_TRUE(cache.Refresh("k", Value("v5"), 5));
  EXPECT_EQ(cache.Peek("k")->value, Value("v5"));
  EXPECT_FALSE(cache.Refresh("k", Value("v4"), 4));  // Older: never lowers.
  EXPECT_FALSE(cache.Refresh("k", Value("other"), 5));  // Same version.
  EXPECT_EQ(cache.Peek("k")->value, Value("v5"));
  EXPECT_EQ(cache.VersionOf("k"), 5);
  EXPECT_FALSE(cache.Refresh("absent", Value("x"), 1));  // Never inserts.
  EXPECT_EQ(cache.item_count(), 1u);
}

TEST(CacheStoreTest, MissReturnsSentinel) {
  CacheStore cache;
  EXPECT_EQ(cache.VersionOf("nope"), kMissingVersion);
  SimDuration lat = 0;
  EXPECT_FALSE(cache.Get("nope", &lat).has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheStoreTest, HitMissCounters) {
  CacheStore cache;
  cache.Install("k", Value("v"), 1);
  SimDuration lat = 0;
  cache.Get("k", &lat);
  cache.Get("other", &lat);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheStoreTest, ClearModelsCacheLoss) {
  CacheStore cache;
  cache.Install("a", Value("1"), 1);
  cache.Install("b", Value("2"), 1);
  cache.Clear();
  EXPECT_EQ(cache.item_count(), 0u);
  EXPECT_EQ(cache.VersionOf("a"), kMissingVersion);
}

TEST(CacheStoreTest, EvictSingleItem) {
  CacheStore cache;
  cache.Install("a", Value("1"), 1);
  cache.Install("b", Value("2"), 1);
  cache.Evict("a");
  EXPECT_EQ(cache.VersionOf("a"), kMissingVersion);
  EXPECT_EQ(cache.VersionOf("b"), 1);
}

TEST(CacheStoreTest, PutPreservesVersion) {
  CacheStore cache;
  cache.Install("k", Value("v1"), 5);
  cache.Put("k", Value("v2"), nullptr);
  EXPECT_EQ(cache.VersionOf("k"), 5);
  EXPECT_EQ(cache.Peek("k")->value, Value("v2"));
}

// --- WriteBuffer --------------------------------------------------------------------

TEST(WriteBufferTest, ReadYourWrites) {
  CacheStore cache;
  cache.Install("k", Value("old"), 3);
  WriteBuffer buffer(&cache);
  SimDuration lat = 0;
  buffer.Put("k", Value("new"), &lat);
  EXPECT_EQ(buffer.Get("k", &lat)->value, Value("new"));
  // The cache itself is untouched.
  EXPECT_EQ(cache.Peek("k")->value, Value("old"));
}

TEST(WriteBufferTest, ReadsFallThrough) {
  CacheStore cache;
  cache.Install("k", Value("v"), 1);
  WriteBuffer buffer(&cache);
  SimDuration lat = 0;
  EXPECT_EQ(buffer.Get("k", &lat)->value, Value("v"));
  EXPECT_FALSE(buffer.Get("missing", &lat).has_value());
}

TEST(WriteBufferTest, DrainCollapsesMultipleWrites) {
  CacheStore cache;
  WriteBuffer buffer(&cache);
  buffer.Put("k", Value("v1"), nullptr);
  buffer.Put("k", Value("v2"), nullptr);
  buffer.Put("a", Value("x"), nullptr);
  const std::vector<BufferedWrite> writes = buffer.Writes();
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[0].key, "a");  // Key order.
  EXPECT_EQ(writes[1].key, "k");
  EXPECT_EQ(writes[1].value, Value("v2"));  // Last write wins.
  EXPECT_EQ(buffer.write_count(), 2u);      // Writes() copies; the buffer keeps them.
}

TEST(WriteBufferTest, DiscardDropsEverything) {
  CacheStore cache;
  WriteBuffer buffer(&cache);
  buffer.Put("k", Value("v"), nullptr);
  buffer.Discard();
  EXPECT_TRUE(buffer.empty());
  SimDuration lat = 0;
  EXPECT_FALSE(buffer.Get("k", &lat).has_value());
}

}  // namespace
}  // namespace radical
