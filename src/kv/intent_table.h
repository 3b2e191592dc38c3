// Write intents and idempotency keys.
//
// A write intent maps an execution id to a status bit and signals that a
// speculative execution may perform writes that have not yet reached the
// primary (§3.4). The LVI server creates the intent during the LVI request,
// starts a timer, and the intent is resolved either by the write followup or
// by deterministic re-execution; whichever happens first wins, and the loser
// is discarded (this is what makes the "validation succeeds but the followup
// is late" case linearizable, §3.6).
//
// Idempotency keys (§5.6) bound each user request to at most two executions:
// once near-user, and at most once near storage. Both tables live in the
// primary store in the paper (DynamoDB); here they are separate structures
// whose access latency the LVI server accounts with the store's write cost.

#ifndef RADICAL_SRC_KV_INTENT_TABLE_H_
#define RADICAL_SRC_KV_INTENT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/types.h"

namespace radical {

enum class IntentStatus {
  kPending,    // Intent created; awaiting followup or re-execution.
  kResolving,  // Re-execution won the race; its writes are not applied yet.
  kDone,       // Updates applied by the followup.
};

class IntentTable {
 public:
  // Creates a pending intent. Returns false if one already exists for this
  // execution — a duplicate request: the retried LVI request of an execution
  // whose response was lost. The caller must treat the existing intent as
  // authoritative rather than re-creating it.
  bool Create(ExecutionId id);

  // Atomically transitions kPending -> kDone: the followup, which applies
  // its writes at once. Returns true iff this call won the race; the caller
  // that loses (late followup, or a timer firing after the followup landed)
  // must discard its updates.
  bool TryComplete(ExecutionId id);

  // Atomically transitions kPending -> kResolving: deterministic
  // re-execution claims the intent, and applies its writes only when its
  // compute ends. Returns true iff this call won the race.
  bool TryResolve(ExecutionId id);

  // kResolving -> kPending: a crash cut the re-execution off before its
  // writes landed, so recovery re-arms the intent. No-op in any other state.
  void Reopen(ExecutionId id);

  // True if the intent exists and is still pending / being re-executed.
  bool IsPending(ExecutionId id) const { return StatusIs(id, IntentStatus::kPending); }
  bool IsResolving(ExecutionId id) const { return StatusIs(id, IntentStatus::kResolving); }
  bool Exists(ExecutionId id) const { return intents_.count(id) > 0; }

  // Removes a handled intent from storage (the paper removes intents once
  // handled): a completed one, or a resolving one at the instant its
  // re-execution's writes land. Returns false if absent or still pending.
  bool Remove(ExecutionId id);

  // Visits every intent (recovery scans the table for completed-but-not-yet
  //-removed intents whose cleanup died with the crashed server).
  void ForEach(const std::function<void(ExecutionId, IntentStatus)>& fn) const;

  size_t size() const { return intents_.size(); }
  uint64_t created() const { return created_; }
  uint64_t completed_by_followup_or_replay() const { return completed_; }
  // Create calls that found an existing intent (idempotent retry hits).
  uint64_t duplicate_creates() const { return duplicate_creates_; }

 private:
  bool StatusIs(ExecutionId id, IntentStatus status) const;

  std::unordered_map<ExecutionId, IntentStatus> intents_;
  uint64_t created_ = 0;
  uint64_t completed_ = 0;
  uint64_t duplicate_creates_ = 0;
};

// At-most-once guard for near-storage executions of a given user request.
class IdempotencyTable {
 public:
  // Records the id; returns true iff this is the first time it is seen (the
  // caller may proceed), false if a near-storage execution already ran.
  bool RecordOnce(ExecutionId id);

  bool Seen(ExecutionId id) const { return seen_.count(id) > 0; }
  size_t size() const { return seen_.size(); }

 private:
  std::unordered_set<ExecutionId> seen_;
};

}  // namespace radical

#endif  // RADICAL_SRC_KV_INTENT_TABLE_H_
