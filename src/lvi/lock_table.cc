#include "src/lvi/lock_table.h"

#include <algorithm>
#include <cassert>

namespace radical {

size_t LockTable::Acquire(ExecutionId exec, const std::vector<Key>& keys,
                          const std::vector<LockMode>& modes, std::vector<Grant>* grants) {
  assert(keys.size() == modes.size());
  ++acquisitions_;
  size_t queued = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    KeyLock& lock = locks_[keys[i]];
    if (lock.writer == exec || lock.readers.count(exec) > 0) {
      continue;  // Already held.
    }
    const bool grantable =
        modes[i] == LockMode::kWrite
            ? lock.Free() && lock.queue.empty()
            // Readers share, but queue behind a waiting writer (fairness).
            : lock.writer == 0 && lock.queue.empty();
    if (grantable) {
      Hold(exec, modes[i], keys[i], lock, grants);
      continue;
    }
    ++queued;
    if (std::none_of(lock.queue.begin(), lock.queue.end(),
                     [exec](const Waiter& w) { return w.exec == exec; })) {
      lock.queue.push_back(Waiter{exec, modes[i]});
    }
  }
  if (queued > 0) {
    ++waits_;
  }
  return queued;
}

void LockTable::Hold(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock,
                     std::vector<Grant>* grants) {
  if (mode == LockMode::kWrite) {
    assert(lock.Free());
    lock.writer = exec;
  } else {
    assert(lock.writer == 0);
    lock.readers.insert(exec);
  }
  held_[exec].insert(key);
  if (grants != nullptr) {
    grants->push_back(Grant{exec, key});
  }
}

void LockTable::Release(ExecutionId exec, std::vector<Grant>* grants) {
  const auto hit = held_.find(exec);
  if (hit == held_.end()) {
    return;
  }
  const std::set<Key> keys = std::move(hit->second);
  held_.erase(hit);
  for (const Key& key : keys) {
    const auto it = locks_.find(key);
    if (it == locks_.end()) {
      continue;
    }
    if (it->second.writer == exec) {
      it->second.writer = 0;
    }
    it->second.readers.erase(exec);
    DrainQueue(it, grants);
  }
}

void LockTable::CancelWaits(ExecutionId exec, const std::vector<Key>& keys,
                            std::vector<Grant>* grants) {
  for (const Key& key : keys) {
    const auto it = locks_.find(key);
    if (it == locks_.end()) {
      continue;
    }
    auto& queue = it->second.queue;
    const auto gone = std::remove_if(queue.begin(), queue.end(),
                                     [exec](const Waiter& w) { return w.exec == exec; });
    if (gone != queue.end()) {
      queue.erase(gone, queue.end());
      // The waiters behind a cancelled writer may be compatible now.
      DrainQueue(it, grants);
    }
  }
}

void LockTable::DrainQueue(std::map<Key, KeyLock>::iterator it, std::vector<Grant>* grants) {
  KeyLock& lock = it->second;
  while (!lock.queue.empty()) {
    const Waiter head = lock.queue.front();
    if (head.mode == LockMode::kWrite ? !lock.Free() : lock.writer != 0) {
      break;
    }
    lock.queue.pop_front();
    Hold(head.exec, head.mode, it->first, lock, grants);
    if (head.mode == LockMode::kWrite) {
      break;  // A writer excludes everything behind it.
    }
    // Consecutive readers are granted together: loop.
  }
  if (lock.Free() && lock.queue.empty()) {
    locks_.erase(it);
  }
}

void LockTable::Restore(std::map<Key, KeyLock> locks) {
  locks_ = std::move(locks);
  held_.clear();
  for (const auto& [key, lock] : locks_) {
    if (lock.writer != 0) {
      held_[lock.writer].insert(key);
    }
    for (const ExecutionId reader : lock.readers) {
      held_[reader].insert(key);
    }
  }
}

bool LockTable::IsWriteHeldBy(const Key& key, ExecutionId exec) const {
  const auto it = locks_.find(key);
  return it != locks_.end() && it->second.writer == exec;
}

bool LockTable::IsReadHeldBy(const Key& key, ExecutionId exec) const {
  const auto it = locks_.find(key);
  return it != locks_.end() && it->second.readers.count(exec) > 0;
}

size_t LockTable::WaitingCount(const Key& key) const {
  const auto it = locks_.find(key);
  return it == locks_.end() ? 0 : it->second.queue.size();
}

size_t LockTable::HeldKeyCount(ExecutionId exec) const {
  const auto it = held_.find(exec);
  return it == held_.end() ? 0 : it->second.size();
}

size_t LockTable::TotalHeldKeys() const {
  return static_cast<size_t>(std::count_if(
      locks_.begin(), locks_.end(), [](const auto& entry) { return !entry.second.Free(); }));
}

}  // namespace radical
