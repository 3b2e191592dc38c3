// LockStateMachine: the replicated lock table of the §5.6 LVI server.
//
// When the LVI server is replicated for high availability, its locks move
// into an etcd-like store: every acquire/release is a command committed
// through Raft, and each replica applies it to its own LockTable — the same
// table a local lock group applies runs to at once. Apply returns the grants
// a command made: at apply time, or when a release unblocks queued waiters.
// Every replica computes the same grants for the same log index, so
// LockService acts on the first replica's.
//
// An acquire command carries a run of (mode, key) pairs: all of one
// execution's keys in this lock group, taken in one commit. The paper's
// implementation commits one key at a time ("acquires all locks in series",
// §5.6) and leaves batching as future work; a one-key run is that command.
// A release command frees what the execution holds and leaves its queued
// waits in place: the service compensates a grant that lands after it.

#ifndef RADICAL_SRC_LVI_LOCK_STATE_MACHINE_H_
#define RADICAL_SRC_LVI_LOCK_STATE_MACHINE_H_

#include <string>
#include <vector>

#include "src/lvi/lock_table.h"
#include "src/raft/log.h"

namespace radical {

class LockStateMachine : public LockTable {
 public:
  // Applies a committed command and returns the grants it made, in grant
  // order. Unknown commands are ignored (forward compatibility); duplicate
  // acquires are idempotent and grant nothing.
  std::vector<Grant> Apply(LogIndex index, const std::string& command);

  // --- Command encoding -------------------------------------------------
  // Acquires `keys` (sorted, with parallel `modes`) for `exec` as one run.
  // Encoded as "batch <exec> <n> (<r|w> <key>)*".
  static std::string EncodeAcquire(ExecutionId exec, const std::vector<Key>& keys,
                                   const std::vector<LockMode>& modes);
  static std::string EncodeRelease(ExecutionId exec);

  // --- Snapshotting (log compaction) --------------------------------------
  // Serializes the complete lock state (holders and wait queues). Restoring
  // replaces the machine's state and grants nothing. Keys must not contain
  // whitespace — the same constraint the text command encoding has.
  std::string EncodeSnapshot() const;
  void RestoreSnapshot(const std::string& data);

  LogIndex last_applied() const { return last_applied_; }

 private:
  LogIndex last_applied_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_STATE_MACHINE_H_
