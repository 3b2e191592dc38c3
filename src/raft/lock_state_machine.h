// LockStateMachine: the replicated lock table of the §5.6 LVI server.
//
// When the LVI server is replicated for high availability, its locks move
// into an etcd-like store: every acquire/release is a command committed
// through Raft, and each replica applies the same deterministic lock-table
// transitions. Apply returns the grants a command made: at apply time, or
// when a release unblocks queued waiters. Every replica computes the same
// grants for the same log index, so the service acts on one replica's.
//
// An acquire command carries a run of (mode, key) pairs: all of one
// execution's keys in this lock group, taken in one commit. The paper's
// implementation commits one key at a time ("acquires all locks in series",
// §5.6) and leaves batching as future work; a one-key run is that command.
// The multi-key in-memory table of the singleton server lives in
// src/lvi/lock_table.h.

#ifndef RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_
#define RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_

#include <deque>
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
  // `exec` now holds the lock on `key`.
  struct Grant {
    ExecutionId exec;
    Key key;
  };

  // Applies a committed command and returns the grants it made, in grant
  // order. Unknown commands are ignored (forward compatibility); duplicate
  // acquires are idempotent and grant nothing.
  std::vector<Grant> Apply(LogIndex index, const std::string& command);

  // --- Command encoding -------------------------------------------------
  // Acquires `keys` (sorted, with parallel `modes`) for `exec`. The run
  // applies atomically: free keys are granted, the rest queue. Encoded as
  // "batch <exec> <n> (<r|w> <key>)*".
  static std::string EncodeAcquire(ExecutionId exec, const std::vector<Key>& keys,
                                   const std::vector<LockMode>& modes);
  static std::string EncodeRelease(ExecutionId exec);

  // --- Snapshotting (log compaction) --------------------------------------
  // Serializes the complete lock state (holders and wait queues). Restoring
  // replaces the machine's state and grants nothing. Keys must not contain
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

  // Each appends the grants it makes to `grants`.
  void ApplyAcquire(ExecutionId exec, LockMode mode, const Key& key, std::vector<Grant>* grants);
  void ApplyRelease(ExecutionId exec, std::vector<Grant>* grants);
  // Grants queued waiters on `key` while compatible.
  void DrainQueue(const Key& key, KeyLock& lock, std::vector<Grant>* grants);
  void Hold(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock,
            std::vector<Grant>* grants);

  std::map<Key, KeyLock> locks_;
  std::map<ExecutionId, std::set<Key>> held_;
  LogIndex last_applied_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_
