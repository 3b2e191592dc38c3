#include "src/kv/write_buffer.h"

namespace radical {

WriteBuffer::WriteBuffer(Storage* base) : base_(base) {}

std::optional<Item> WriteBuffer::Get(const Key& key, SimDuration* latency) {
  const auto it = writes_.find(key);
  if (it != writes_.end()) {
    // Buffered reads are local memory; no storage latency.
    return Item{it->second, kMissingVersion};
  }
  return base_->Get(key, latency);
}

void WriteBuffer::Put(const Key& key, const Value& value, SimDuration* latency) {
  // Buffered writes cost a cache write only when installed; the speculative
  // path pays local-memory cost, modeled as free.
  (void)latency;
  writes_[key] = value;
}

std::vector<BufferedWrite> WriteBuffer::Writes() const {
  std::vector<BufferedWrite> out;
  out.reserve(writes_.size());
  for (const auto& [key, value] : writes_) {
    out.push_back(BufferedWrite{key, value});
  }
  return out;
}

}  // namespace radical
