// LockTable: the per-key read/write lock rule of the LVI server, the one
// table both lock planes apply.
//
// Each LVI request acquires a read or write lock per item in its read/write
// set (§3.6): readers share, writers exclude, and each key has a FIFO wait
// queue in which a new reader queues behind a waiting writer, so writers
// cannot starve. An acquire run (one execution's keys in one table) applies
// atomically: free keys are granted and contended keys queue, in one step.
//
// The table is a pure transition function with no clock: every operation
// appends the grants it makes to a caller-supplied vector. A local lock group
// of LockService (src/lvi/lock_service.h) is one table, which applies each
// run as it is submitted; every node of a Raft lock group keeps one inside
// its LockStateMachine (src/lvi/lock_state_machine.h) and applies committed
// runs to it. Either way LockService acts on the grants.

#ifndef RADICAL_SRC_LVI_LOCK_TABLE_H_
#define RADICAL_SRC_LVI_LOCK_TABLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "src/analysis/rw_set.h"

namespace radical {

class LockTable {
 public:
  // `exec` now holds the lock on `key`.
  struct Grant {
    ExecutionId exec;
    Key key;
  };

  struct Waiter {
    ExecutionId exec;
    LockMode mode;
  };

  struct KeyLock {
    ExecutionId writer = 0;  // 0 = none.
    std::set<ExecutionId> readers;
    std::deque<Waiter> queue;

    bool Free() const { return writer == 0 && readers.empty(); }
  };

  // Applies the run `keys` (with parallel `modes`) for `exec` atomically and
  // returns how many of its keys are left queued. Keys `exec` already holds
  // or waits on are skipped, so a duplicate run is idempotent and grants
  // nothing. `grants` may be null when the caller needs only the count.
  size_t Acquire(ExecutionId exec, const std::vector<Key>& keys,
                 const std::vector<LockMode>& modes, std::vector<Grant>* grants);

  // Releases every lock `exec` holds and grants the waiters that become
  // compatible. `exec`'s own queued waits stay in place.
  void Release(ExecutionId exec, std::vector<Grant>* grants);

  // Drops `exec`'s queued waits on `keys` and grants the waiters behind them
  // that become compatible.
  void CancelWaits(ExecutionId exec, const std::vector<Key>& keys, std::vector<Grant>* grants);

  // --- State (snapshots) -------------------------------------------------
  const std::map<Key, KeyLock>& locks() const { return locks_; }
  // Replaces the whole table; grants nothing.
  void Restore(std::map<Key, KeyLock> locks);

  // --- Introspection ------------------------------------------------------
  bool IsWriteHeldBy(const Key& key, ExecutionId exec) const;
  bool IsReadHeldBy(const Key& key, ExecutionId exec) const;
  size_t WaitingCount(const Key& key) const;
  size_t HeldKeyCount(ExecutionId exec) const;
  // Keys held by anyone at all — zero once every execution has released.
  size_t TotalHeldKeys() const;
  size_t active_lock_count() const { return locks_.size(); }

  // --- Stats ---------------------------------------------------------------
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t waits() const { return waits_; }  // Acquire runs that queued.

 private:
  void Hold(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock,
            std::vector<Grant>* grants);
  // Grants queued waiters on `key` while compatible; erases the entry once
  // nobody holds or waits on it.
  void DrainQueue(std::map<Key, KeyLock>::iterator it, std::vector<Grant>* grants);

  std::map<Key, KeyLock> locks_;
  std::map<ExecutionId, std::set<Key>> held_;
  uint64_t acquisitions_ = 0;
  uint64_t waits_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_TABLE_H_
