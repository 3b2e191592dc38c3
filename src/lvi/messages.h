// Wire messages of the LVI protocol.
//
// One LVI request travels near-user -> near-storage carrying the read/write
// set (from f^rw) with the cache's version per item; the response reports
// validation success, or — on failure — the backup execution's result plus
// fresh copies of every stale or written item so the near-user cache can be
// repaired (§3.2). A read-only request that fails validation gets no backup:
// its response is the primary's snapshot of its items, read at the lock
// grant, and the runtime reruns f on it. Validation compares the items f
// reads; a blind write (a key f writes but never reads) is pinned at the
// primary's version instead.
// The write followup ships the speculative writes after the client has
// already been answered. The cache push carries every committed write from
// the primary to the near-user caches that hold the key.

#ifndef RADICAL_SRC_LVI_MESSAGES_H_
#define RADICAL_SRC_LVI_MESSAGES_H_

#include <string>
#include <vector>

#include "src/analysis/rw_set.h"
#include "src/common/types.h"
#include "src/common/value.h"
#include "src/kv/item.h"
#include "src/kv/write_buffer.h"
#include "src/sim/region.h"

namespace radical {

// Server verdict attached to every response. `kOk` is the normal case and
// encodes to zero extra bytes on the wire (the status block is an optional
// trailing field). `kOverloaded` means the request was rejected at admission
// because the per-shard queue limit was full; `kShed` means the server
// accepted it but dropped it once it became clear the client deadline could
// no longer be met. Both carry a server-suggested retry-after hint.
enum class ResponseStatus : uint8_t {
  kOk = 0,
  kOverloaded = 1,
  kShed = 2,
};

const char* ResponseStatusName(ResponseStatus status);

// A sender's acknowledgement, carried by every LVI and direct request a
// runtime sends (an optional trailing wire group): every execution id the
// sender issued in this life below `below` is final, so the server may drop
// what it keeps for them (RIFL's "first incomplete sequence number"). `life`
// counts the sender's crashes; a restarted runtime is a new origin, whose
// acknowledgements never reach the ids of its previous life. below == 0
// acknowledges nothing: a failover replay carries no acknowledgement, and
// the server files it under no origin.
struct Ack {
  uint64_t life = 0;
  ExecutionId below = 0;
};

// One entry of the request's item list.
struct LviItem {
  Key key;
  Version cached_version = kMissingVersion;  // -1 when absent from the cache.
  LockMode mode = LockMode::kRead;
  // A key f writes but never reads (mode kWrite). Its value cannot change
  // f's result or its writes, so validation does not compare its version:
  // the write lands at the primary's version + 1, whatever the cache held.
  // On the wire it is the mode byte's third value, so it costs no byte.
  bool blind = false;
  // Session high-water mark for this key: the highest version the session
  // has observed (read or written), 0 when sessionless or never observed.
  // Validation marks the item stale when the primary sits below it (a
  // would-be monotonic-read violation, SwiftCloud-style) so the backup
  // execution answers with fresh state instead. Rides on the wire only when
  // the request carries a session (optional trailing group).
  Version session_floor = 0;
};

struct LviRequest {
  ExecutionId exec_id = 0;
  Region origin = Region::kVA;
  std::string function;       // Registered function name.
  std::vector<Value> inputs;  // Needed near-storage for backup execution and
                              // deterministic re-execution (§3.4).
  std::vector<LviItem> items;  // Sorted by key.
  // Absolute client deadline (simulator time); 0 = none. The server sheds
  // work that can no longer be answered by this time instead of queueing it.
  SimTime deadline = 0;
  // Session tag (optional trailing wire group; absent = byte-identical to
  // the sessionless encoding). 0 = no session. When nonzero, the items'
  // session_floor versions travel with it.
  uint64_t session_id = 0;
  Ack ack;
};

// Fresh copy shipped back for a stale or backup-written item.
struct FreshItem {
  Key key;
  Value value;
  Version version = 0;
};

struct LviResponse {
  ExecutionId exec_id = 0;
  bool validated = false;
  // Validation failure of a read-only request: `fresh_items` is the
  // primary's snapshot of every request item, read under the read locks at
  // their grant (an absent key at kMissingVersion with a unit value), and
  // no backup ran. The runtime reruns f on the snapshot. On the wire it is
  // the validation byte's third value, so it costs no byte.
  bool snapshot = false;
  // A writer's validation failure: the backup execution's result and fresh
  // copies of stale/written items for cache repair. Validation success: the
  // blind writes whose cached version differs from the primary's, each with the
  // primary's pinned version and no value. The runtime installs every
  // speculative write at its base version + 1 — the cached version, or the
  // pinned one for these — exactly the version the primary assigns when the
  // followup lands.
  Value backup_result;
  std::vector<FreshItem> fresh_items;
  // Overload verdict. When != kOk the response carries no result; the
  // request was rejected (kOverloaded) or shed (kShed) and `retry_after`
  // hints how long the client should wait before retrying (0 = no hint).
  ResponseStatus status = ResponseStatus::kOk;
  SimDuration retry_after = 0;
};

// The speculation's writes, sent once and never acknowledged: the write
// intent makes sure they reach the primary even if this message is lost
// (§3.4). It also carries f's result, which the server keeps with the
// writes so that a failover replay of the request is answered with it
// rather than running f again.
struct WriteFollowup {
  ExecutionId exec_id = 0;
  std::vector<BufferedWrite> writes;
  Value result;
};

// Fallback path for functions the analyzer could not handle: the request is
// forwarded whole and executes in the near-storage location (§3.3).
struct DirectRequest {
  ExecutionId exec_id = 0;
  Region origin = Region::kVA;
  std::string function;
  std::vector<Value> inputs;
  SimTime deadline = 0;  // Absolute client deadline; 0 = none.
  // Session tag (optional trailing wire field; 0 = none). Direct execution is
  // already linearizable at the primary, so no floor travels with it — the id
  // identifies session traffic (metrics) and failover replays, which reuse
  // the original exec_id on this path for exactly-once resolution.
  uint64_t session_id = 0;
  Ack ack;
};

struct DirectResponse {
  ExecutionId exec_id = 0;
  Value result;
  std::vector<FreshItem> fresh_items;  // Written items, for cache repair.
  ResponseStatus status = ResponseStatus::kOk;
  SimDuration retry_after = 0;
};

// Primary -> every near-user cache, once an execution's writes are durable at
// the primary: the written items at their new versions. A cache refreshes
// only keys it already holds and only to a newer version, so a push never
// inserts and never moves an item backwards. Pushes are lossy by design —
// dropped, delayed or reordered pushes only leave a cache stale, which
// validation already tolerates (§3.2); they just spare the next reader a
// failed validation and its backup execution.
struct CachePush {
  std::vector<FreshItem> items;  // Sorted by key.
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_MESSAGES_H_
