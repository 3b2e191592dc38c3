#include "src/kv/versioned_store.h"

#include <cassert>

namespace radical {

VersionedStore::VersionedStore(VersionedStoreOptions options) : options_(options) {}

void VersionedStore::Account(SimDuration* latency, SimDuration amount) const {
  if (latency != nullptr) {
    *latency += amount;
  }
}

std::optional<Item> VersionedStore::Get(const Key& key, SimDuration* latency) {
  ++reads_;
  Account(latency, options_.read_latency);
  const auto it = items_.find(key);
  if (it == items_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void VersionedStore::Put(const Key& key, const Value& value, SimDuration* latency) {
  ++writes_;
  Account(latency, options_.write_latency);
  Item& item = items_[key];
  item.value = value;
  ++item.version;
}

Version VersionedStore::VersionOf(const Key& key) const {
  const auto it = items_.find(key);
  return it == items_.end() ? kMissingVersion : it->second.version;
}

std::vector<Item> VersionedStore::BatchGet(const std::vector<Key>& keys,
                                           SimDuration* latency) const {
  // One batched read round regardless of key count (DynamoDB BatchGetItem).
  Account(latency, options_.read_latency);
  std::vector<Item> out;
  out.reserve(keys.size());
  for (const Key& k : keys) {
    const auto it = items_.find(k);
    out.push_back(it == items_.end() ? Item{Value(), kMissingVersion} : it->second);
  }
  return out;
}

std::optional<Item> VersionedStore::Peek(const Key& key) const {
  const auto it = items_.find(key);
  if (it == items_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void VersionedStore::ApplyValidatedWrite(const Key& key, const Value& value,
                                         Version validated_version, SimDuration* latency) {
  ++writes_;
  Account(latency, options_.write_latency);
  const Version current = VersionOf(key);
  // The write lock held since validation guarantees no other execution
  // advanced this item.
  assert(current == validated_version && "write lock violated: item moved under a held lock");
  (void)current;
  Item& item = items_[key];
  item.value = value;
  item.version = validated_version + 1;
}

void VersionedStore::ForEachItem(const std::function<void(const Key&, const Item&)>& fn) const {
  for (const auto& [key, item] : items_) {
    fn(key, item);
  }
}

void VersionedStore::Seed(const Key& key, const Value& value) {
  Item& item = items_[key];
  item.value = value;
  ++item.version;
}

void VersionedStore::RegisterMetrics(obs::MetricsRegistry* registry,
                                     const std::string& prefix) const {
  registry->AddCallbackGauge(prefix + ".reads",
                             [this] { return static_cast<int64_t>(reads_); });
  registry->AddCallbackGauge(prefix + ".writes",
                             [this] { return static_cast<int64_t>(writes_); });
  registry->AddCallbackGauge(prefix + ".items",
                             [this] { return static_cast<int64_t>(items_.size()); });
}

}  // namespace radical
