#include "src/raft/lock_state_machine.h"

#include <sstream>

namespace radical {

std::string LockStateMachine::EncodeAcquire(ExecutionId exec, const std::vector<Key>& keys,
                                            const std::vector<LockMode>& modes) {
  std::ostringstream os;
  os << "batch " << exec << " " << keys.size();
  for (size_t i = 0; i < keys.size(); ++i) {
    os << " " << (modes[i] == LockMode::kWrite ? "w" : "r") << " " << keys[i];
  }
  return os.str();
}

std::string LockStateMachine::EncodeRelease(ExecutionId exec) {
  std::ostringstream os;
  os << "release " << exec;
  return os.str();
}

std::string LockStateMachine::EncodeSnapshot() const {
  std::ostringstream os;
  os << "snapshot " << last_applied_ << " " << locks_.size();
  for (const auto& [key, lock] : locks_) {
    os << " " << key << " " << lock.writer << " " << lock.readers.size();
    for (const ExecutionId reader : lock.readers) {
      os << " " << reader;
    }
    os << " " << lock.queue.size();
    for (const Waiter& waiter : lock.queue) {
      os << " " << (waiter.mode == LockMode::kWrite ? "w" : "r") << " " << waiter.exec;
    }
  }
  return os.str();
}

void LockStateMachine::RestoreSnapshot(const std::string& data) {
  locks_.clear();
  held_.clear();
  std::istringstream is(data);
  std::string magic;
  is >> magic;
  if (magic != "snapshot") {
    return;  // Unknown format: start empty (same as a fresh machine).
  }
  size_t num_locks = 0;
  is >> last_applied_ >> num_locks;
  for (size_t i = 0; i < num_locks && is; ++i) {
    std::string key;
    ExecutionId writer = 0;
    size_t num_readers = 0;
    is >> key >> writer >> num_readers;
    KeyLock& lock = locks_[key];
    lock.writer = writer;
    if (writer != 0) {
      held_[writer].insert(key);
    }
    for (size_t r = 0; r < num_readers && is; ++r) {
      ExecutionId reader = 0;
      is >> reader;
      lock.readers.insert(reader);
      held_[reader].insert(key);
    }
    size_t queue_size = 0;
    is >> queue_size;
    for (size_t q = 0; q < queue_size && is; ++q) {
      std::string mode;
      ExecutionId exec = 0;
      is >> mode >> exec;
      lock.queue.push_back(Waiter{exec, mode == "w" ? LockMode::kWrite : LockMode::kRead});
    }
  }
}

std::vector<LockStateMachine::Grant> LockStateMachine::Apply(LogIndex index,
                                                             const std::string& command) {
  last_applied_ = index;
  std::vector<Grant> grants;
  std::istringstream is(command);
  std::string op;
  is >> op;
  if (op == "batch") {
    ExecutionId exec = 0;
    size_t n = 0;
    is >> exec >> n;
    for (size_t i = 0; i < n && is; ++i) {
      std::string mode_str;
      std::string key;
      is >> mode_str >> key;
      if (exec != 0 && !key.empty()) {
        ApplyAcquire(exec, mode_str == "w" ? LockMode::kWrite : LockMode::kRead, key, &grants);
      }
    }
  } else if (op == "release") {
    ExecutionId exec = 0;
    is >> exec;
    if (exec != 0) {
      ApplyRelease(exec, &grants);
    }
  }
  // Unknown commands ignored.
  return grants;
}

void LockStateMachine::Hold(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock,
                            std::vector<Grant>* grants) {
  if (mode == LockMode::kWrite) {
    lock.writer = exec;
  } else {
    lock.readers.insert(exec);
  }
  held_[exec].insert(key);
  grants->push_back(Grant{exec, key});
}

void LockStateMachine::ApplyAcquire(ExecutionId exec, LockMode mode, const Key& key,
                                    std::vector<Grant>* grants) {
  KeyLock& lock = locks_[key];
  // Idempotence: already held by this execution.
  if (lock.writer == exec || lock.readers.count(exec) > 0) {
    return;
  }
  const bool grantable =
      mode == LockMode::kWrite
          ? lock.Free() && lock.queue.empty()
          // Readers share, but queue behind a waiting writer (fairness).
          : lock.writer == 0 && lock.queue.empty();
  if (grantable) {
    Hold(exec, mode, key, lock, grants);
    return;
  }
  // Duplicate queued request is idempotent.
  for (const Waiter& w : lock.queue) {
    if (w.exec == exec) {
      return;
    }
  }
  lock.queue.push_back(Waiter{exec, mode});
}

void LockStateMachine::ApplyRelease(ExecutionId exec, std::vector<Grant>* grants) {
  const auto it = held_.find(exec);
  if (it == held_.end()) {
    return;
  }
  const std::set<Key> keys = it->second;
  held_.erase(it);
  for (const Key& key : keys) {
    auto lit = locks_.find(key);
    if (lit == locks_.end()) {
      continue;
    }
    KeyLock& lock = lit->second;
    if (lock.writer == exec) {
      lock.writer = 0;
    }
    lock.readers.erase(exec);
    DrainQueue(key, lock, grants);
    if (lock.Free() && lock.queue.empty()) {
      locks_.erase(lit);
    }
  }
}

void LockStateMachine::DrainQueue(const Key& key, KeyLock& lock, std::vector<Grant>* grants) {
  while (!lock.queue.empty()) {
    const Waiter head = lock.queue.front();
    if (head.mode == LockMode::kWrite) {
      if (!lock.Free()) {
        return;
      }
      lock.queue.pop_front();
      Hold(head.exec, head.mode, key, lock, grants);
      return;  // A writer excludes everything behind it.
    }
    // Reader: joins as long as no writer holds the lock.
    if (lock.writer != 0) {
      return;
    }
    lock.queue.pop_front();
    Hold(head.exec, head.mode, key, lock, grants);
    // Continue: consecutive readers are granted together.
  }
}

bool LockStateMachine::IsWriteHeldBy(const Key& key, ExecutionId exec) const {
  const auto it = locks_.find(key);
  return it != locks_.end() && it->second.writer == exec;
}

bool LockStateMachine::IsReadHeldBy(const Key& key, ExecutionId exec) const {
  const auto it = locks_.find(key);
  return it != locks_.end() && it->second.readers.count(exec) > 0;
}

size_t LockStateMachine::WaitingCount(const Key& key) const {
  const auto it = locks_.find(key);
  return it == locks_.end() ? 0 : it->second.queue.size();
}

size_t LockStateMachine::HeldKeyCount(ExecutionId exec) const {
  const auto it = held_.find(exec);
  return it == held_.end() ? 0 : it->second.size();
}

size_t LockStateMachine::TotalHeldKeys() const {
  size_t held = 0;
  for (const auto& [key, lock] : locks_) {
    if (!lock.Free()) ++held;
  }
  return held;
}

}  // namespace radical
