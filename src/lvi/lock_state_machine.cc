#include "src/lvi/lock_state_machine.h"

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
  os << "snapshot " << last_applied_ << " " << locks().size();
  for (const auto& [key, lock] : locks()) {
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
  std::map<Key, KeyLock> locks;
  std::istringstream is(data);
  std::string magic;
  is >> magic;
  if (magic == "snapshot") {
    size_t num_locks = 0;
    is >> last_applied_ >> num_locks;
    for (size_t i = 0; i < num_locks && is; ++i) {
      std::string key;
      ExecutionId writer = 0;
      size_t num_readers = 0;
      is >> key >> writer >> num_readers;
      KeyLock& lock = locks[key];
      lock.writer = writer;
      for (size_t r = 0; r < num_readers && is; ++r) {
        ExecutionId reader = 0;
        is >> reader;
        lock.readers.insert(reader);
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
  // An unknown format restores an empty table (same as a fresh machine).
  Restore(std::move(locks));
}

std::vector<LockStateMachine::Grant> LockStateMachine::Apply(LogIndex index,
                                                             const std::string& command) {
  last_applied_ = index;
  std::vector<Grant> grants;
  std::istringstream is(command);
  std::string op;
  ExecutionId exec = 0;
  is >> op >> exec;
  if (exec == 0) {
    return grants;
  }
  if (op == "batch") {
    size_t n = 0;
    is >> n;
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    for (size_t i = 0; i < n && is; ++i) {
      std::string mode;
      Key key;
      is >> mode >> key;
      if (!key.empty()) {
        keys.push_back(std::move(key));
        modes.push_back(mode == "w" ? LockMode::kWrite : LockMode::kRead);
      }
    }
    Acquire(exec, keys, modes, &grants);
  } else if (op == "release") {
    Release(exec, &grants);
  }
  // Unknown commands ignored.
  return grants;
}

}  // namespace radical
