#include "src/lvi/lock_service.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace radical {

LocalLockService::LocalLockService(Simulator* sim, int shards) : router_(shards) {
  assert(shards >= 1);
  tables_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    tables_.push_back(std::make_unique<LockTable>(sim));
  }
}

void LocalLockService::AcquireAll(ExecutionId exec, std::vector<Key> keys,
                                  std::vector<LockMode> modes, std::function<void()> granted) {
  assert(std::is_sorted(keys.begin(), keys.end()) && "keys must be sorted");
  // Partition the sorted key set into per-shard groups, preserving key order
  // within each group: the acquisition order is (shard, key) — one total
  // order followed by every acquirer, hence deadlock-free.
  std::vector<ShardGroup> by_shard(static_cast<size_t>(router_.shards()));
  for (size_t i = 0; i < keys.size(); ++i) {
    ShardGroup& group = by_shard[static_cast<size_t>(router_.ShardOf(keys[i]))];
    group.keys.push_back(std::move(keys[i]));
    group.modes.push_back(modes[i]);
  }
  auto groups = std::make_shared<std::vector<ShardGroup>>();
  for (int s = 0; s < router_.shards(); ++s) {
    if (!by_shard[static_cast<size_t>(s)].keys.empty()) {
      by_shard[static_cast<size_t>(s)].shard = s;
      groups->push_back(std::move(by_shard[static_cast<size_t>(s)]));
    }
  }
  if (groups->empty()) {
    // An item-less acquisition still goes through shard 0's table, which
    // defers the grant by a zero-delay event: `granted` never runs inside
    // this call.
    groups->push_back(ShardGroup{});
  }
  AcquireGroup(exec, std::move(groups), 0,
               std::make_shared<std::function<void()>>(std::move(granted)));
}

void LocalLockService::AcquireGroup(ExecutionId exec,
                                    std::shared_ptr<std::vector<ShardGroup>> groups, size_t index,
                                    std::shared_ptr<std::function<void()>> granted) {
  if (index >= groups->size()) {
    (*granted)();
    return;
  }
  ShardGroup& group = (*groups)[index];
  // A retried acquisition merges into the original inside the shard's table
  // (the new continuation replaces the queued one), exactly as with the
  // single table — the chain then resumes from wherever the retry reaches.
  table(group.shard).AcquireAll(exec, group.keys, group.modes,
                                [this, exec, groups = std::move(groups), index,
                                 granted = std::move(granted)]() mutable {
                                  AcquireGroup(exec, std::move(groups), index + 1,
                                               std::move(granted));
                                });
}

void LocalLockService::ReleaseAll(ExecutionId exec) {
  for (auto& table : tables_) {
    table->ReleaseAll(exec);
  }
}

uint64_t LocalLockService::total_acquisitions() const {
  uint64_t n = 0;
  for (const auto& table : tables_) {
    n += table->acquisitions();
  }
  return n;
}

uint64_t LocalLockService::total_waits() const {
  uint64_t n = 0;
  for (const auto& table : tables_) {
    n += table->waits();
  }
  return n;
}

ReplicatedLockService::ReplicatedLockService(Simulator* sim, int node_count,
                                             RaftOptions raft_options,
                                             LocalMeshOptions mesh_options, bool batched,
                                             int shards)
    : sim_(sim),
      batched_(batched),
      raft_options_(raft_options),
      router_(std::max(1, shards)),
      groups_(static_cast<size_t>(router_.shards())) {
  for (int g = 0; g < router_.shards(); ++g) {
    BuildGroup(g, node_count, raft_options, mesh_options);
  }
}

void ReplicatedLockService::BuildGroup(int g, int node_count, const RaftOptions& raft_options,
                                       const LocalMeshOptions& mesh_options) {
  LockGroup& group = groups_[static_cast<size_t>(g)];
  group.machines.reserve(static_cast<size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    auto machine = std::make_unique<LockStateMachine>();
    machine->set_grant_listener(
        [this](ExecutionId exec, const Key& key) { OnGrant(exec, key); });
    group.machines.push_back(std::move(machine));
  }
  // A single group keeps the historical "raft" metric scope; multi-group
  // deployments get one scope per shard so each group is observable.
  const std::string scope =
      router_.shards() == 1 ? "raft" : "raft.shard" + std::to_string(g);
  group.cluster = std::make_unique<RaftCluster>(
      sim_, node_count, raft_options,
      [this, g](NodeId id) -> RaftNode::ApplyFn {
        // On restart the machine is rebuilt from scratch and replayed.
        auto machine = std::make_unique<LockStateMachine>();
        machine->set_grant_listener(
            [this](ExecutionId exec, const Key& key) { OnGrant(exec, key); });
        auto& slot = groups_[static_cast<size_t>(g)].machines[static_cast<size_t>(id)];
        slot = std::move(machine);
        LockStateMachine* raw = slot.get();
        return [raw](LogIndex index, const std::string& command) { raw->Apply(index, command); };
      },
      mesh_options, scope);
  // Snapshot hooks resolve the machine at call time, so they stay valid
  // across node restarts (which recreate the machines).
  for (NodeId id = 0; id < node_count; ++id) {
    group.cluster->node(id)->set_snapshot_hooks(
        [this, g, id]() {
          return groups_[static_cast<size_t>(g)].machines[static_cast<size_t>(id)]->EncodeSnapshot();
        },
        [this, g, id](const std::string& data) {
          groups_[static_cast<size_t>(g)].machines[static_cast<size_t>(id)]->RestoreSnapshot(data);
        });
  }
}

ReplicatedLockService::~ReplicatedLockService() = default;

bool ReplicatedLockService::Bootstrap() {
  for (auto& group : groups_) {
    if (group.cluster->StartAndElect() < 0) {
      return false;
    }
  }
  return true;
}

const LockStateMachine* ReplicatedLockService::LeaderState(int shard) const {
  const LockGroup& group = groups_[static_cast<size_t>(shard)];
  const NodeId id = group.cluster->LeaderId();
  return id < 0 ? nullptr : group.machines[static_cast<size_t>(id)].get();
}

void ReplicatedLockService::AcquireAll(ExecutionId exec, std::vector<Key> keys,
                                       std::vector<LockMode> modes,
                                       std::function<void()> granted) {
  assert(keys.size() == modes.size());
  if (keys.empty()) {
    sim_->Schedule(0, std::move(granted));
    return;
  }
  const auto pit = pending_.find(exec);
  if (pit != pending_.end()) {
    // Retried acquisition while the original is still working through Raft:
    // keep its progress, steer the grant to the retry's continuation.
    pit->second.granted = std::move(granted);
    return;
  }
  // Re-order the (lexicographically sorted) key set into (shard, key) order
  // — the same total order LocalLockService acquires in, so the
  // resource-ordering deadlock-freedom argument carries over. At one shard
  // the stable sort is the identity.
  std::vector<size_t> order(keys.size());
  std::vector<int> shard(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    order[i] = i;
    shard[i] = router_.ShardOf(keys[i]);
  }
  std::stable_sort(order.begin(), order.end(), [&shard](size_t a, size_t b) {
    return shard[a] < shard[b];
  });
  PendingAcquire acq;
  acq.keys.reserve(keys.size());
  acq.modes.reserve(keys.size());
  acq.shard_of.reserve(keys.size());
  for (size_t i : order) {
    acq.keys.push_back(std::move(keys[i]));
    acq.modes.push_back(modes[i]);
    acq.shard_of.push_back(shard[i]);
  }
  acq.granted = std::move(granted);
  // Grants this exec already received (a retry after a crash re-acquires
  // locks it still holds in the replicated table) count immediately.
  for (const Key& key : acq.keys) {
    if (seen_grants_.count({exec, key}) > 0) {
      acq.granted_keys.insert(key);
    }
  }
  if (acq.granted_keys.size() == acq.keys.size()) {
    sim_->Schedule(0, std::move(acq.granted));
    return;
  }
  while (!batched_ && acq.next < acq.keys.size() &&
         acq.granted_keys.count(acq.keys[acq.next]) > 0) {
    ++acq.next;
  }
  pending_.emplace(exec, std::move(acq));
  if (batched_) {
    SubmitNextBatch(exec);
    return;
  }
  SubmitNext(exec);
}

void ReplicatedLockService::SubmitNext(ExecutionId exec) {
  const auto it = pending_.find(exec);
  if (it == pending_.end()) {
    return;
  }
  PendingAcquire& acq = it->second;
  while (acq.next < acq.keys.size() && acq.granted_keys.count(acq.keys[acq.next]) > 0) {
    ++acq.next;
  }
  if (acq.next >= acq.keys.size()) {
    return;  // Completion is handled on the grant path.
  }
  const std::string command =
      LockStateMachine::EncodeAcquire(exec, acq.modes[acq.next], acq.keys[acq.next]);
  // Locks are acquired in series (§5.6): the next key is only submitted once
  // this one is granted — see OnGrant.
  cluster(acq.shard_of[acq.next])
      .SubmitToLeader(command, [this, exec](LogIndex index) {
        if (index == 0) {
          OnAcquireSubmitFailed(exec);
        }
      });
}

size_t ReplicatedLockService::RunEnd(const PendingAcquire& acq, size_t from) {
  if (from >= acq.keys.size()) {
    return from;
  }
  const int shard = acq.shard_of[from];
  size_t end = from;
  while (end < acq.keys.size() && acq.shard_of[end] == shard) {
    ++end;
  }
  return end;
}

void ReplicatedLockService::SubmitNextBatch(ExecutionId exec) {
  const auto it = pending_.find(exec);
  if (it == pending_.end()) {
    return;
  }
  PendingAcquire& acq = it->second;
  // Skip over runs whose keys are all already granted (pre-grants from a
  // retry after crash).
  while (acq.batch_from < acq.keys.size()) {
    const size_t end = RunEnd(acq, acq.batch_from);
    bool all_granted = true;
    for (size_t i = acq.batch_from; i < end; ++i) {
      if (acq.granted_keys.count(acq.keys[i]) == 0) {
        all_granted = false;
        break;
      }
    }
    if (!all_granted) {
      break;
    }
    acq.batch_from = end;
  }
  if (acq.batch_from >= acq.keys.size()) {
    return;  // Completion is handled on the grant path.
  }
  const size_t end = RunEnd(acq, acq.batch_from);
  std::vector<Key> run_keys;
  std::vector<LockMode> run_modes;
  for (size_t i = acq.batch_from; i < end; ++i) {
    run_keys.push_back(acq.keys[i]);
    run_modes.push_back(acq.modes[i]);
  }
  // One commit carries the run's whole key set; the state machine grants
  // what is free and queues the rest atomically. Runs are taken in
  // ascending shard order, chaining on the run's last grant.
  cluster(acq.shard_of[acq.batch_from])
      .SubmitToLeader(LockStateMachine::EncodeBatchAcquire(exec, run_keys, run_modes),
                      [this, exec](LogIndex index) {
                        if (index == 0) {
                          OnAcquireSubmitFailed(exec);
                        }
                      });
}

void ReplicatedLockService::OnAcquireSubmitFailed(ExecutionId exec) {
  if (pending_.count(exec) == 0) {
    return;  // Granted through another path or released meanwhile.
  }
  // The proposal outlived the submit deadline (a leaderless spell, or the
  // proposing leader lost its term). The command may or may not be in some
  // log; resubmitting is idempotent either way, and *not* resubmitting
  // would stall the acquisition forever.
  ++acquire_resubmits_;
  RLOG(kWarn) << "replicated acquire proposal timed out; resubmitting exec=" << exec;
  sim_->Schedule(raft_options_.election_timeout_min, [this, exec] {
    if (pending_.count(exec) == 0) {
      return;
    }
    if (batched_) {
      SubmitNextBatch(exec);
    } else {
      SubmitNext(exec);
    }
  });
}

void ReplicatedLockService::OnGrant(ExecutionId exec, const Key& key) {
  // Every replica applies every command; act once per (exec, key).
  if (!seen_grants_.emplace(exec, key).second) {
    return;
  }
  const auto it = pending_.find(exec);
  if (it == pending_.end()) {
    if (released_execs_.count(exec) > 0) {
      // The exec released before this (retried) acquire committed. Submit a
      // fresh release: it necessarily lands after the acquire in the
      // group's log, so the stray lock cannot leak.
      const int shard = router_.ShardOf(key);
      releasing_[exec].insert(shard);
      SubmitRelease(exec, shard);
    }
    return;
  }
  PendingAcquire& acq = it->second;
  const bool expected =
      std::find(acq.keys.begin(), acq.keys.end(), key) != acq.keys.end();
  if (!expected) {
    return;  // A grant for some other key (e.g. replayed after restart).
  }
  acq.granted_keys.insert(key);
  if (!batched_ && acq.next < acq.keys.size() && acq.keys[acq.next] == key) {
    ++acq.next;
    while (acq.next < acq.keys.size() && acq.granted_keys.count(acq.keys[acq.next]) > 0) {
      ++acq.next;
    }
    if (acq.next < acq.keys.size()) {
      // Schedule rather than recurse: grants fire inside Raft's apply path.
      sim_->Schedule(0, [this, exec] { SubmitNext(exec); });
    }
  }
  if (batched_ && acq.batch_from < acq.keys.size()) {
    const size_t end = RunEnd(acq, acq.batch_from);
    bool run_granted = true;
    for (size_t i = acq.batch_from; i < end; ++i) {
      if (acq.granted_keys.count(acq.keys[i]) == 0) {
        run_granted = false;
        break;
      }
    }
    if (run_granted) {
      acq.batch_from = end;
      if (acq.batch_from < acq.keys.size()) {
        sim_->Schedule(0, [this, exec] { SubmitNextBatch(exec); });
      }
    }
  }
  if (acq.granted_keys.size() < acq.keys.size()) {
    return;
  }
  std::function<void()> granted = std::move(acq.granted);
  pending_.erase(it);
  if (granted) {
    sim_->Schedule(0, std::move(granted));
  }
}

void ReplicatedLockService::ReleaseAll(ExecutionId exec) {
  // Collect the groups that may hold state for this exec: those of every
  // granted key, plus those of every key at or before the submission
  // frontier of a still-pending acquire (submitted but ungranted commands
  // may be queued in the group's table).
  std::set<int> shards;
  for (auto it = seen_grants_.begin(); it != seen_grants_.end();) {
    if (it->first == exec) {
      shards.insert(router_.ShardOf(it->second));
      it = seen_grants_.erase(it);
    } else {
      ++it;
    }
  }
  const auto pit = pending_.find(exec);
  if (pit != pending_.end()) {
    const PendingAcquire& acq = pit->second;
    const size_t frontier =
        batched_ ? RunEnd(acq, acq.batch_from) : std::min(acq.next + 1, acq.keys.size());
    for (size_t i = 0; i < frontier; ++i) {
      shards.insert(acq.shard_of[i]);
    }
    pending_.erase(pit);
  }
  if (shards.empty()) {
    shards.insert(0);  // Stray release: route to group 0 (harmless no-op).
  }
  released_execs_.insert(exec);
  for (int shard : shards) {
    if (releasing_[exec].insert(shard).second) {
      SubmitRelease(exec, shard);
    }
  }
}

void ReplicatedLockService::SubmitRelease(ExecutionId exec, int shard) {
  cluster(shard).SubmitToLeader(
      LockStateMachine::EncodeRelease(exec), [this, exec, shard](LogIndex index) {
        const auto rit = releasing_.find(exec);
        if (rit == releasing_.end()) {
          return;
        }
        if (index != 0) {
          rit->second.erase(shard);
          if (rit->second.empty()) {
            releasing_.erase(rit);
          }
          return;
        }
        // The release outlived the submit deadline. Retry until it commits:
        // dropping it would leak the lock in the replicated table forever.
        ++release_retries_;
        RLOG(kWarn) << "replicated release timed out; retrying exec=" << exec;
        sim_->Schedule(raft_options_.election_timeout_min, [this, exec, shard] {
          const auto rit2 = releasing_.find(exec);
          if (rit2 != releasing_.end() && rit2->second.count(shard) > 0) {
            SubmitRelease(exec, shard);
          }
        });
      });
}

}  // namespace radical
