// VersionedStore: the primary copy of the data.
//
// Models the near-storage DynamoDB table of the paper: a linearizable,
// durable key-value store holding (value, version) items. Every write
// increments the item's version (Radical interposes on writes to do this,
// §3.1). Access from the same datacenter costs a few milliseconds of virtual
// time per operation.
//
// The store itself is a plain map — linearizability of the *store* is
// trivial because the simulation is single-threaded; what Radical must (and
// does) provide is linearizability of *application executions* that overlap
// in virtual time, which the LVI protocol layers on top.

#ifndef RADICAL_SRC_KV_VERSIONED_STORE_H_
#define RADICAL_SRC_KV_VERSIONED_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/kv/storage.h"
#include "src/obs/metrics.h"

namespace radical {

// Latency options for the primary store.
struct VersionedStoreOptions {
    // Latency of one read/write from the same datacenter. DynamoDB
    // single-item operations take low single-digit milliseconds; §5.6
    // measures 3 ms for an intent/idempotency write.
  SimDuration read_latency = Millis(1);
  SimDuration write_latency = Millis(2);
};

class VersionedStore : public Storage {
 public:
  explicit VersionedStore(VersionedStoreOptions options = {});

  // Storage interface (used when a function executes near storage).
  std::optional<Item> Get(const Key& key, SimDuration* latency) override;
  void Put(const Key& key, const Value& value, SimDuration* latency) override;

  // Version of an item; kMissingVersion if absent. Zero-latency variant for
  // internal protocol checks (the LVI server batches its validation reads
  // and accounts latency itself).
  Version VersionOf(const Key& key) const;

  // Batched read used by the validate step: the value and version of each
  // key, in `keys` order, an absent key as a unit value at kMissingVersion.
  // One round to storage regardless of key count; `latency` receives its
  // cost.
  std::vector<Item> BatchGet(const std::vector<Key>& keys, SimDuration* latency) const;

  // Zero-latency peek (for tests and cache refresh payload assembly).
  std::optional<Item> Peek(const Key& key) const;

  // Applies a write of an execution that pinned the item at
  // `validated_version` when its write lock was granted: the new version is
  // validated_version + 1. Asserts that the version did not move past that
  // (the write lock guarantees it cannot).
  void ApplyValidatedWrite(const Key& key, const Value& value, Version validated_version,
                           SimDuration* latency);

  // Seeds an item without latency (initial dataset load).
  void Seed(const Key& key, const Value& value);

  // Visits every item (key order), zero latency. Used to warm caches and by
  // consistency-checking tests.
  void ForEachItem(const std::function<void(const Key&, const Item&)>& fn) const;

  size_t item_count() const { return items_.size(); }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  const VersionedStoreOptions& options() const { return options_; }

  // Publishes this store's statistics as callback gauges under
  // "<prefix>.reads/writes/items" — read at snapshot time, so the store's
  // hot path is untouched. The store must outlive the registry's snapshots.
  void RegisterMetrics(obs::MetricsRegistry* registry, const std::string& prefix) const;

 private:
  void Account(SimDuration* latency, SimDuration amount) const;

  VersionedStoreOptions options_;
  std::map<Key, Item> items_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_KV_VERSIONED_STORE_H_
