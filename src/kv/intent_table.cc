#include "src/kv/intent_table.h"

namespace radical {

bool IntentTable::Create(ExecutionId id) {
  const auto [it, inserted] = intents_.emplace(id, IntentStatus::kPending);
  (void)it;
  if (inserted) {
    ++created_;
  } else {
    ++duplicate_creates_;
  }
  return inserted;
}

void IntentTable::ForEach(const std::function<void(ExecutionId, IntentStatus)>& fn) const {
  for (const auto& [id, status] : intents_) {
    fn(id, status);
  }
}

bool IntentTable::TryComplete(ExecutionId id) {
  const auto it = intents_.find(id);
  if (it == intents_.end() || it->second != IntentStatus::kPending) {
    return false;
  }
  it->second = IntentStatus::kDone;
  ++completed_;
  return true;
}

bool IntentTable::TryResolve(ExecutionId id) {
  const auto it = intents_.find(id);
  if (it == intents_.end() || it->second != IntentStatus::kPending) {
    return false;
  }
  it->second = IntentStatus::kResolving;
  ++completed_;
  return true;
}

void IntentTable::Reopen(ExecutionId id) {
  const auto it = intents_.find(id);
  if (it != intents_.end() && it->second == IntentStatus::kResolving) {
    it->second = IntentStatus::kPending;
  }
}

bool IntentTable::StatusIs(ExecutionId id, IntentStatus status) const {
  const auto it = intents_.find(id);
  return it != intents_.end() && it->second == status;
}

bool IntentTable::Remove(ExecutionId id) {
  const auto it = intents_.find(id);
  if (it == intents_.end() || it->second == IntentStatus::kPending) {
    return false;
  }
  intents_.erase(it);
  return true;
}

bool IdempotencyTable::RecordOnce(ExecutionId id) { return seen_.insert(id).second; }

}  // namespace radical
