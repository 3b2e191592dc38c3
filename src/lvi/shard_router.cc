#include "src/lvi/shard_router.h"

#include <cassert>

namespace radical {

ShardRouter::ShardRouter(int shards) : shards_(shards) {
  assert(shards_ >= 1 && "a router needs at least one shard");
}

uint64_t ShardRouter::Point(const Key& key) {
  // FNV-1a, 64-bit. Chosen for determinism and zero dependencies, not
  // adversarial strength — shard placement is a performance concern, and the
  // simulator's workloads are not hostile.
  uint64_t h = 14695981039346656037ull;
  for (const char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

int ShardRouter::ShardOfPoint(uint64_t point) const {
  if (shards_ == 1) {
    return 0;
  }
  // floor(point * N / 2^64): the range partition of the point space.
  return static_cast<int>(
      (static_cast<unsigned __int128>(point) * static_cast<unsigned __int128>(shards_)) >> 64);
}

int ShardRouter::ShardOf(const Key& key) const {
  return shards_ == 1 ? 0 : ShardOfPoint(Point(key));
}

uint64_t ShardRouter::RangeStart(int shard) const {
  assert(shard >= 0 && shard < shards_);
  // Smallest point p with floor(p * N / 2^64) == shard: ceil(shard * 2^64 / N).
  const unsigned __int128 space = static_cast<unsigned __int128>(1) << 64;
  const unsigned __int128 numerator = static_cast<unsigned __int128>(shard) * space;
  const unsigned __int128 n = static_cast<unsigned __int128>(shards_);
  return static_cast<uint64_t>((numerator + n - 1) / n);
}

uint64_t ShardRouter::RangeLimit(int shard) const {
  assert(shard >= 0 && shard < shards_);
  return shard + 1 == shards_ ? 0 : RangeStart(shard + 1);
}

}  // namespace radical
