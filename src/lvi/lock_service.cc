#include "src/lvi/lock_service.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace radical {

LocalLockService::LocalLockService(Simulator* sim, int shards)
    : sim_(sim), router_(shards), tables_(static_cast<size_t>(shards)) {
  assert(shards >= 1);
}

void LocalLockService::AcquireAll(ExecutionId exec, std::vector<Key> keys,
                                  std::vector<LockMode> modes, std::function<void()> granted) {
  assert(std::is_sorted(keys.begin(), keys.end()) && "keys must be sorted");
  const auto it = pending_.find(exec);
  if (it != pending_.end()) {
    // A retried acquisition while the original is still in progress (its
    // pipeline died with a server crash; the locks survived on disk, the
    // continuation did not): keep the original's progress, its place in
    // every wait queue, and steer the grant to the retry's continuation.
    it->second.granted = std::move(granted);
    return;
  }
  // Partition the sorted key set into per-shard groups, preserving key order
  // within each group: the acquisition order is (shard, key).
  std::vector<ShardGroup> by_shard(static_cast<size_t>(router_.shards()));
  for (size_t i = 0; i < keys.size(); ++i) {
    ShardGroup& group = by_shard[static_cast<size_t>(router_.ShardOf(keys[i]))];
    group.keys.push_back(std::move(keys[i]));
    group.modes.push_back(modes[i]);
  }
  Pending& acq = pending_[exec];
  acq.id = ++next_pending_id_;
  for (int s = 0; s < router_.shards(); ++s) {
    if (!by_shard[static_cast<size_t>(s)].keys.empty()) {
      by_shard[static_cast<size_t>(s)].shard = s;
      acq.groups.push_back(std::move(by_shard[static_cast<size_t>(s)]));
    }
  }
  if (acq.groups.empty()) {
    // An item-less acquisition is an empty run in shard 0's table, so its
    // grant is a zero-delay event too: `granted` never runs inside this call.
    acq.groups.push_back(ShardGroup{});
  }
  acq.granted = std::move(granted);
  AcquireGroup(exec, acq);
}

void LocalLockService::AcquireGroup(ExecutionId exec, Pending& acq) {
  const ShardGroup& group = acq.groups[acq.next];
  // Keys `exec` already holds (a retry after a crash) count as granted; the
  // table grants free keys and queues the rest in one step.
  acq.ungranted = table(group.shard).Acquire(exec, group.keys, group.modes, nullptr);
  if (acq.ungranted == 0) {
    ScheduleHandOff(exec, acq);
  }
}

void LocalLockService::ScheduleHandOff(ExecutionId exec, const Pending& acq) {
  // Zero-delay event: callers never re-enter the service from inside it.
  sim_->Schedule(0, [this, exec, id = acq.id] {
    const auto it = pending_.find(exec);
    if (it == pending_.end() || it->second.id != id) {
      return;  // Released before the hand-off.
    }
    Pending& current = it->second;
    if (++current.next < current.groups.size()) {
      AcquireGroup(exec, current);
      return;
    }
    const std::function<void()> granted = std::move(current.granted);
    pending_.erase(it);
    granted();
  });
}

void LocalLockService::OnGrants(const std::vector<LockTable::Grant>& grants) {
  for (const LockTable::Grant& grant : grants) {
    const auto it = pending_.find(grant.exec);
    assert(it != pending_.end() && it->second.ungranted > 0 && "grant to a waiter not pending");
    if (--it->second.ungranted == 0) {
      ScheduleHandOff(grant.exec, it->second);
    }
  }
}

void LocalLockService::ReleaseAll(ExecutionId exec) {
  std::vector<LockTable::Grant> grants;
  const auto it = pending_.find(exec);
  if (it != pending_.end()) {
    // Only the group in flight can have queued waits; drop them, which may
    // unblock the waiters behind them.
    const Pending& acq = it->second;
    if (acq.ungranted > 0) {
      const ShardGroup& group = acq.groups[acq.next];
      table(group.shard).CancelWaits(exec, group.keys, &grants);
    }
    pending_.erase(it);
  }
  for (LockTable& table : tables_) {
    table.Release(exec, &grants);
  }
  OnGrants(grants);
}

uint64_t LocalLockService::total_acquisitions() const {
  uint64_t n = 0;
  for (const LockTable& table : tables_) {
    n += table.acquisitions();
  }
  return n;
}

uint64_t LocalLockService::total_waits() const {
  uint64_t n = 0;
  for (const LockTable& table : tables_) {
    n += table.waits();
  }
  return n;
}

ReplicatedLockService::ReplicatedLockService(Simulator* sim, int node_count,
                                             RaftOptions raft_options,
                                             LocalMeshOptions mesh_options, int shards)
    : sim_(sim),
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
  // Filled by the apply factory below, once per node at construction.
  group.machines.resize(static_cast<size_t>(node_count));
  // A single group keeps the historical "raft" metric scope; multi-group
  // deployments get one scope per shard so each group is observable.
  const std::string scope =
      router_.shards() == 1 ? "raft" : "raft.shard" + std::to_string(g);
  group.cluster = std::make_unique<RaftCluster>(
      sim_, node_count, raft_options,
      [this, g](NodeId id) -> RaftNode::ApplyFn {
        // On restart the machine is rebuilt from scratch and replayed.
        auto& slot = groups_[static_cast<size_t>(g)].machines[static_cast<size_t>(id)];
        slot = std::make_unique<LockStateMachine>();
        LockStateMachine* raw = slot.get();
        return [this, g, raw](LogIndex index, const std::string& command) {
          const std::vector<LockStateMachine::Grant> grants = raw->Apply(index, command);
          // Every replica computes the same grants for an index: act on the
          // first apply only.
          LockGroup& applied_group = groups_[static_cast<size_t>(g)];
          if (index <= applied_group.applied) {
            return;
          }
          applied_group.applied = index;
          for (const LockStateMachine::Grant& grant : grants) {
            OnGrant(g, grant.exec, grant.key);
          }
        };
      },
      mesh_options, scope);
  obs::MetricsScope metrics(&sim_->metrics(), group.cluster->metric_scope());
  group.acquire_resubmits = metrics.counter("acquire_resubmits");
  group.release_retries = metrics.counter("release_retries");
  group.compensating_releases = metrics.counter("compensating_releases");
  group.acquires_after_release = metrics.counter("acquires_after_release");
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

uint64_t ReplicatedLockService::Sum(obs::Counter* LockGroup::*counter) const {
  uint64_t n = 0;
  for (const LockGroup& group : groups_) {
    n += (group.*counter)->value();
  }
  return n;
}

void ReplicatedLockService::AcquireAll(ExecutionId exec, std::vector<Key> keys,
                                       std::vector<LockMode> modes,
                                       std::function<void()> granted) {
  assert(keys.size() == modes.size());
  if (keys.empty()) {
    sim_->Schedule(0, std::move(granted));
    return;
  }
  const auto rit = releasing_.find(exec);
  if (rit != releasing_.end()) {
    // Wait until this exec's releases have committed, so none of them can
    // land behind the new acquire (ResumeAfterRelease starts it).
    auto acquire = [this, exec, keys = std::move(keys), modes = std::move(modes),
                    granted = std::move(granted)] { AcquireAll(exec, keys, modes, granted); };
    if (after_release_.insert_or_assign(exec, std::move(acquire)).second) {
      groups_[static_cast<size_t>(*rit->second.begin())].acquires_after_release->Increment();
    }
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
  // Locks this exec already holds (a retry after a crash re-acquires locks
  // it still holds in the replicated table) count immediately.
  if (Advance(exec, acq)) {
    sim_->Schedule(0, std::move(acq.granted));
    return;
  }
  pending_.emplace(exec, std::move(acq));
  SubmitNext(exec);
}

size_t ReplicatedLockService::RunEnd(const PendingAcquire& acq) const {
  size_t end = acq.next;
  while (end < acq.keys.size() && acq.shard_of[end] == acq.shard_of[acq.next]) {
    ++end;
  }
  return end;
}

bool ReplicatedLockService::Advance(ExecutionId exec, PendingAcquire& acq) const {
  const auto hit = held_.find(exec);
  while (acq.next < acq.keys.size()) {
    const size_t end = RunEnd(acq);
    for (size_t i = acq.next; i < end; ++i) {
      if (hit == held_.end() || hit->second.count(acq.keys[i]) == 0) {
        return false;
      }
    }
    acq.next = end;
  }
  return true;
}

void ReplicatedLockService::SubmitNext(ExecutionId exec) {
  const auto it = pending_.find(exec);
  if (it == pending_.end()) {
    return;
  }
  const PendingAcquire& acq = it->second;
  const int shard = acq.shard_of[acq.next];
  // One commit carries the run's whole key set; the state machine grants
  // what is free and queues the rest atomically. Runs are taken in ascending
  // shard order, chaining on grants (OnGrant).
  const auto from = static_cast<std::ptrdiff_t>(acq.next);
  const auto to = static_cast<std::ptrdiff_t>(RunEnd(acq));
  std::string command = LockStateMachine::EncodeAcquire(
      exec, std::vector<Key>(acq.keys.begin() + from, acq.keys.begin() + to),
      std::vector<LockMode>(acq.modes.begin() + from, acq.modes.begin() + to));
  cluster(shard).SubmitToLeader(std::move(command), [this, exec, shard](LogIndex index) {
    if (index == 0) {
      OnAcquireSubmitFailed(exec, shard);
    }
  });
}

void ReplicatedLockService::OnAcquireSubmitFailed(ExecutionId exec, int shard) {
  if (pending_.count(exec) == 0) {
    return;  // Granted through another path or released meanwhile.
  }
  // The proposal outlived the submit deadline (a leaderless spell, or the
  // proposing leader lost its term). The command may or may not be in some
  // log; resubmitting is idempotent either way, and *not* resubmitting
  // would stall the acquisition forever.
  groups_[static_cast<size_t>(shard)].acquire_resubmits->Increment();
  RLOG(kWarn) << "replicated acquire proposal timed out; resubmitting exec=" << exec;
  sim_->Schedule(raft_options_.election_timeout_min, [this, exec] { SubmitNext(exec); });
}

void ReplicatedLockService::OnGrant(int shard, ExecutionId exec, const Key& key) {
  const auto it = pending_.find(exec);
  if (it == pending_.end() && held_.count(exec) == 0) {
    // A stray grant: `exec` released before it committed. A release behind
    // it in the group's log frees the lock; one already in flight does.
    if (releasing_[exec].insert(shard).second) {
      groups_[static_cast<size_t>(shard)].compensating_releases->Increment();
      SubmitRelease(exec, shard);
    }
    return;
  }
  held_[exec].insert(key);
  if (it == pending_.end()) {
    return;
  }
  PendingAcquire& acq = it->second;
  const size_t before = acq.next;
  if (!Advance(exec, acq)) {
    if (acq.next != before) {
      // Schedule rather than recurse: grants arrive inside Raft's apply path.
      sim_->Schedule(0, [this, exec] { SubmitNext(exec); });
    }
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
  // held key, plus those of every key up to the end of a still-pending
  // acquire's run in flight (submitted but ungranted commands may be queued
  // in the group's table).
  std::set<int> shards;
  const auto hit = held_.find(exec);
  if (hit != held_.end()) {
    for (const Key& key : hit->second) {
      shards.insert(router_.ShardOf(key));
    }
    held_.erase(hit);
  }
  const auto pit = pending_.find(exec);
  if (pit != pending_.end()) {
    const PendingAcquire& acq = pit->second;
    const size_t frontier = RunEnd(acq);
    for (size_t i = 0; i < frontier; ++i) {
      shards.insert(acq.shard_of[i]);
    }
    pending_.erase(pit);
  }
  after_release_.erase(exec);
  if (shards.empty()) {
    shards.insert(0);  // Stray release: route to group 0 (harmless no-op).
  }
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
            ResumeAfterRelease(exec);
          }
          return;
        }
        // The release outlived the submit deadline. Retry until it commits:
        // dropping it would leak the lock in the replicated table forever.
        groups_[static_cast<size_t>(shard)].release_retries->Increment();
        RLOG(kWarn) << "replicated release timed out; retrying exec=" << exec;
        sim_->Schedule(raft_options_.election_timeout_min, [this, exec, shard] {
          const auto rit2 = releasing_.find(exec);
          if (rit2 != releasing_.end() && rit2->second.count(shard) > 0) {
            SubmitRelease(exec, shard);
          }
        });
      });
}

void ReplicatedLockService::ResumeAfterRelease(ExecutionId exec) {
  if (after_release_.count(exec) == 0) {
    return;
  }
  // Schedule rather than recurse: commits are reported inside Raft's apply
  // path. A ReleaseAll before the event drops the acquisition, and a new
  // release in flight keeps it parked until that one commits too.
  sim_->Schedule(0, [this, exec] {
    const auto it = after_release_.find(exec);
    if (it == after_release_.end() || releasing_.count(exec) > 0) {
      return;
    }
    const std::function<void()> acquire = std::move(it->second);
    after_release_.erase(it);
    acquire();
  });
}

}  // namespace radical
