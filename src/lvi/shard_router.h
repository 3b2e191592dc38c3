// ShardRouter: the key -> shard map shared by every component that shards
// the LVI hot path (lock groups, local or Raft; admission queues; per-shard
// server channels).
//
// Keys are routed by range-partitioning a *hashed* keyspace, the way
// DynamoDB assigns items to partitions: a 64-bit point is derived from the
// key (FNV-1a), and shard s owns the contiguous point range
// [s * 2^64 / N, (s+1) * 2^64 / N). Hashing spreads real-world key
// distributions ("post/123", "user/7/...") evenly across shards; the range
// structure over points keeps ownership contiguous, so rebalancing N -> k*N
// splits every shard into exactly k children and never moves a key between
// unrelated shards (tests/shard_test.cc pins this refinement invariant).
//
// Deadlock-freedom under sharding: lock acquisition orders keys by
// (ShardOf(key), key) — see LockService — which is a total order, so the
// classic resource-ordering argument carries over unchanged from the
// single-table server, for local and Raft lock groups alike.

#ifndef RADICAL_SRC_LVI_SHARD_ROUTER_H_
#define RADICAL_SRC_LVI_SHARD_ROUTER_H_

#include <cstdint>

#include "src/kv/item.h"

namespace radical {

class ShardRouter {
 public:
  // `shards` >= 1; one shard degenerates to the identity routing (everything
  // maps to shard 0).
  explicit ShardRouter(int shards = 1);

  int shards() const { return shards_; }

  // The shard owning `key`. Always in [0, shards()).
  int ShardOf(const Key& key) const;
  // The shard owning an already-computed point.
  int ShardOfPoint(uint64_t point) const;

  // The key's position in the hashed keyspace (FNV-1a 64). Deterministic and
  // platform-independent; the whole protocol's shard placement derives from
  // this one function.
  static uint64_t Point(const Key& key);

  // Half-open point range [RangeStart(s), RangeLimit(s)) owned by shard s;
  // RangeLimit of the last shard is reported as 0 (the range wraps to 2^64).
  // Ranges tile the space: RangeLimit(s) == RangeStart(s+1).
  uint64_t RangeStart(int shard) const;
  uint64_t RangeLimit(int shard) const;

 private:
  int shards_;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_SHARD_ROUTER_H_
