// CacheStore: the eventually consistent near-user cache.
//
// Each near-user location holds a cache of (value, version) items that may
// be stale; the LVI validate step compares these versions against the
// primary. The cache needs neither durability nor consistency (§3.2): if an
// item is missing, the runtime sends version -1 so validation fails and the
// LVI response repopulates it; if everything is lost, successive LVI
// requests gradually rebuild the cache. The paper's implementation persists
// the cache so it does not bootstrap from scratch after a failure; `Clear`
// models losing a non-persistent cache.

#ifndef RADICAL_SRC_KV_CACHE_STORE_H_
#define RADICAL_SRC_KV_CACHE_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/kv/storage.h"
#include "src/obs/metrics.h"

namespace radical {

// Latency options for the near-user cache.
struct CacheStoreOptions {
    // Near-user cache access latency. The paper uses DynamoDB as the cache
    // "to isolate the performance differences due to Radical's architecture"
    // (§5.2), so the default matches same-DC DynamoDB; an in-memory cache
    // (the ScyllaDB variant of §5.7) would be faster.
  SimDuration read_latency = Millis(1);
  SimDuration write_latency = Millis(1);
  // The paper's implementation persists the cache so it does not bootstrap
  // from scratch after a failure (§3.2 extension). Non-persistent caches
  // lose everything on CrashRestart().
  bool persistent = true;
};

class CacheStore : public Storage {
 public:
  explicit CacheStore(CacheStoreOptions options = {});

  // Storage interface. Put() preserves the current version (speculative
  // write application sets versions explicitly via Install).
  std::optional<Item> Get(const Key& key, SimDuration* latency) override;
  void Put(const Key& key, const Value& value, SimDuration* latency) override;

  // Version of a cached item; kMissingVersion if absent (what the LVI
  // request carries for misses).
  Version VersionOf(const Key& key) const;

  // Installs an item at an exact version: used when (a) an LVI response
  // carries fresh values for stale items, and (b) speculative writes commit
  // locally after LVI success (version = validated primary version + 1,
  // which is exactly what the primary will assign when the followup lands).
  void Install(const Key& key, const Value& value, Version version);

  // Applies a pushed copy of a primary item (a CachePush): updates the item
  // only if the cache already holds the key at an older version. Never
  // inserts (a push must not copy every written key into every cache) and
  // never lowers a version. Returns true when the item changed.
  bool Refresh(const Key& key, const Value& value, Version version);

  // Zero-latency peek for tests.
  std::optional<Item> Peek(const Key& key) const;

  // Drops a single item (models eviction).
  void Evict(const Key& key);

  // Loses the entire cache (models a non-persistent cache restarting).
  void Clear();

  // Models the cache process restarting: persistent caches keep their items
  // (they were on disk); non-persistent ones come back empty and bootstrap
  // gradually through failed validations (§3.2). Returns the number of
  // items surviving.
  size_t CrashRestart();

  size_t item_count() const { return items_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  const CacheStoreOptions& options() const { return options_; }

  // Publishes this cache's statistics as callback gauges under
  // "<prefix>.hits/misses/items" — read at snapshot time, so the store's hot
  // path is untouched. The store must outlive the registry's snapshots.
  void RegisterMetrics(obs::MetricsRegistry* registry, const std::string& prefix) const;

 private:
  CacheStoreOptions options_;
  std::map<Key, Item> items_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_KV_CACHE_STORE_H_
