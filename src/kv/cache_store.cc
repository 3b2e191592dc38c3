#include "src/kv/cache_store.h"

namespace radical {

CacheStore::CacheStore(CacheStoreOptions options) : options_(options) {}

std::optional<Item> CacheStore::Get(const Key& key, SimDuration* latency) {
  if (latency != nullptr) {
    *latency += options_.read_latency;
  }
  const auto it = items_.find(key);
  if (it == items_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void CacheStore::Put(const Key& key, const Value& value, SimDuration* latency) {
  if (latency != nullptr) {
    *latency += options_.write_latency;
  }
  items_[key].value = value;
}

Version CacheStore::VersionOf(const Key& key) const {
  const auto it = items_.find(key);
  return it == items_.end() ? kMissingVersion : it->second.version;
}

void CacheStore::Install(const Key& key, const Value& value, Version version) {
  Item& item = items_[key];
  item.value = value;
  item.version = version;
}

bool CacheStore::Refresh(const Key& key, const Value& value, Version version) {
  const auto it = items_.find(key);
  if (it == items_.end() || it->second.version >= version) {
    return false;
  }
  it->second.value = value;
  it->second.version = version;
  return true;
}

std::optional<Item> CacheStore::Peek(const Key& key) const {
  const auto it = items_.find(key);
  if (it == items_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void CacheStore::Evict(const Key& key) { items_.erase(key); }

size_t CacheStore::CrashRestart() {
  if (!options_.persistent) {
    items_.clear();
  }
  return items_.size();
}

void CacheStore::Clear() { items_.clear(); }

void CacheStore::RegisterMetrics(obs::MetricsRegistry* registry, const std::string& prefix) const {
  registry->AddCallbackGauge(prefix + ".hits",
                             [this] { return static_cast<int64_t>(hits_); });
  registry->AddCallbackGauge(prefix + ".misses",
                             [this] { return static_cast<int64_t>(misses_); });
  registry->AddCallbackGauge(prefix + ".items",
                             [this] { return static_cast<int64_t>(items_.size()); });
}

}  // namespace radical
