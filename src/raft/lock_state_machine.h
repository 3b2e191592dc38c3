// LockStateMachine: the replicated lock table of the §5.6 LVI server.
//
// When the LVI server is replicated for high availability, its locks move
// into an etcd-like store: every acquire/release is a command committed
// through Raft, and each replica applies the same deterministic lock-table
// transitions. The service layer listens for grant events on the applied
// stream (grants may happen at apply time, or later when a release unblocks
// a queued waiter).
//
// Commands are single-key ("our implementation of the replicated server
// acquires all locks in series", §5.6); the multi-key in-memory table of the
// singleton server lives in src/lvi/lock_table.h.

#ifndef RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_
#define RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/rw_set.h"
#include "src/common/types.h"
#include "src/raft/log.h"

namespace radical {

class LockStateMachine {
 public:
  // Fired when `exec` is granted the lock on `key` (at apply time or when a
  // release unblocks it). Every replica fires it; listeners dedupe.
  using GrantListener = std::function<void(ExecutionId exec, const Key& key)>;

  void set_grant_listener(GrantListener listener) { grant_listener_ = std::move(listener); }

  // Applies a committed command. Unknown commands are ignored (forward
  // compatibility); duplicate acquires are idempotent.
  void Apply(LogIndex index, const std::string& command);

  // --- Command encoding -------------------------------------------------
  static std::string EncodeAcquire(ExecutionId exec, LockMode mode, const Key& key);
  // Batched acquisition (§5.6's proposed optimization): all of an LVI
  // request's locks in one Raft commit. Keys must be sorted; the batch is
  // applied atomically — available keys are granted, the rest queue.
  static std::string EncodeBatchAcquire(ExecutionId exec, const std::vector<Key>& keys,
                                        const std::vector<LockMode>& modes);
  static std::string EncodeRelease(ExecutionId exec);

  // --- Snapshotting (log compaction) --------------------------------------
  // Serializes the complete lock state (holders and wait queues). Restoring
  // replaces the machine's state; no grant notifications fire (grants are
  // edge-triggered and listeners deduplicate). Keys must not contain
  // whitespace — the same constraint the text command encoding has.
  std::string EncodeSnapshot() const;
  void RestoreSnapshot(const std::string& data);

  // --- Introspection (tests) ---------------------------------------------
  bool IsWriteHeldBy(const Key& key, ExecutionId exec) const;
  bool IsReadHeldBy(const Key& key, ExecutionId exec) const;
  size_t WaitingCount(const Key& key) const;
  size_t HeldKeyCount(ExecutionId exec) const;
  // Keys held by anyone at all — zero once every execution has released.
  size_t TotalHeldKeys() const;
  LogIndex last_applied() const { return last_applied_; }

 private:
  struct Waiter {
    ExecutionId exec;
    LockMode mode;
  };

  struct KeyLock {
    ExecutionId writer = 0;          // 0 = none.
    std::set<ExecutionId> readers;
    std::deque<Waiter> queue;

    bool Free() const { return writer == 0 && readers.empty(); }
  };

  void ApplyAcquire(ExecutionId exec, LockMode mode, const Key& key);
  void ApplyRelease(ExecutionId exec);
  // Grants queued waiters on `key` while compatible.
  void DrainQueue(const Key& key, KeyLock& lock);
  void Grant(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock);

  std::map<Key, KeyLock> locks_;
  std::map<ExecutionId, std::set<Key>> held_;
  GrantListener grant_listener_;
  LogIndex last_applied_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_
