// WriteBuffer: read-your-writes overlay for speculative execution.
//
// While a function executes speculatively at the near-user location, its
// writes must not touch the cache (the speculation may be invalidated by the
// LVI validate step) yet must be visible to its own later reads. The
// WriteBuffer overlays a base Storage: reads check the buffer first, writes
// land only in the buffer. The runtime ships the buffered writes in the
// write followup when the speculation ends and, after LVI success, installs
// the same writes in the cache (with the versions the primary will assign);
// on failure the buffer is discarded.

#ifndef RADICAL_SRC_KV_WRITE_BUFFER_H_
#define RADICAL_SRC_KV_WRITE_BUFFER_H_

#include <map>
#include <optional>
#include <vector>

#include "src/kv/storage.h"

namespace radical {

// One buffered write, as shipped in the write followup.
struct BufferedWrite {
  Key key;
  Value value;
};

class WriteBuffer : public Storage {
 public:
  // `base` must outlive the buffer.
  explicit WriteBuffer(Storage* base);

  std::optional<Item> Get(const Key& key, SimDuration* latency) override;
  void Put(const Key& key, const Value& value, SimDuration* latency) override;

  bool HasWrite(const Key& key) const { return writes_.count(key) > 0; }
  size_t write_count() const { return writes_.size(); }
  bool empty() const { return writes_.empty(); }

  // A copy of the final value per key (later writes overwrite earlier ones),
  // in key order, as sent in the write followup. The buffer keeps them.
  std::vector<BufferedWrite> Writes() const;

  void Discard() { writes_.clear(); }

 private:
  Storage* base_;
  std::map<Key, Value> writes_;
};

}  // namespace radical

#endif  // RADICAL_SRC_KV_WRITE_BUFFER_H_
