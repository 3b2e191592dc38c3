#include "src/lvi/lock_service.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace radical {

LockService::LockService(Simulator* sim, int node_count, RaftOptions raft_options,
                         LocalMeshOptions mesh_options, int shards)
    : sim_(sim),
      raft_options_(raft_options),
      router_(std::max(1, shards)),
      groups_(static_cast<size_t>(router_.shards())) {
  if (node_count > 0) {
    for (int g = 0; g < router_.shards(); ++g) {
      BuildRaftGroup(g, node_count, mesh_options);
    }
  }
}

void LockService::BuildRaftGroup(int g, int node_count, const LocalMeshOptions& mesh_options) {
  RaftGroup& group = *(groups_[static_cast<size_t>(g)].raft = std::make_unique<RaftGroup>());
  // Filled by the apply factory below, once per node at construction.
  group.machines.resize(static_cast<size_t>(node_count));
  // A single group keeps the historical "raft" metric scope; multi-group
  // deployments get one scope per shard so each group is observable.
  const std::string scope =
      router_.shards() == 1 ? "raft" : "raft.shard" + std::to_string(g);
  group.cluster = std::make_unique<RaftCluster>(
      sim_, node_count, raft_options_,
      [this, &group, g](NodeId id) -> RaftNode::ApplyFn {
        // On restart the machine is rebuilt from scratch and replayed.
        auto& slot = group.machines[static_cast<size_t>(id)];
        slot = std::make_unique<LockStateMachine>();
        LockStateMachine* raw = slot.get();
        return [this, &group, g, raw](LogIndex index, const std::string& command) {
          const std::vector<LockStateMachine::Grant> grants = raw->Apply(index, command);
          // Every replica computes the same grants for an index: act on the
          // first apply only.
          if (index <= group.applied) {
            return;
          }
          group.applied = index;
          OnGrants(g, grants);
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
        [&group, id]() { return group.machines[static_cast<size_t>(id)]->EncodeSnapshot(); },
        [&group, id](const std::string& data) {
          group.machines[static_cast<size_t>(id)]->RestoreSnapshot(data);
        });
  }
}

LockService::~LockService() = default;

bool LockService::Bootstrap() {
  for (const LockGroup& group : groups_) {
    if (group.raft != nullptr && group.raft->cluster->StartAndElect() < 0) {
      return false;
    }
  }
  return true;
}

const LockStateMachine* LockService::LeaderState(int shard) const {
  const RaftGroup& group = *groups_[static_cast<size_t>(shard)].raft;
  const NodeId id = group.cluster->LeaderId();
  return id < 0 ? nullptr : group.machines[static_cast<size_t>(id)].get();
}

uint64_t LockService::total_acquisitions() const {
  uint64_t n = 0;
  for (const LockGroup& group : groups_) {
    n += group.table.acquisitions();
  }
  return n;
}

uint64_t LockService::total_waits() const {
  uint64_t n = 0;
  for (const LockGroup& group : groups_) {
    n += group.table.waits();
  }
  return n;
}

uint64_t LockService::Sum(obs::Counter* RaftGroup::*counter) const {
  uint64_t n = 0;
  for (const LockGroup& group : groups_) {
    if (group.raft != nullptr) {
      n += (group.raft.get()->*counter)->value();
    }
  }
  return n;
}

void LockService::AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                             std::function<void()> granted) {
  assert(std::is_sorted(keys.begin(), keys.end()) && "keys must be sorted");
  assert(keys.size() == modes.size());
  const auto pit = pending_.find(exec);
  if (pit != pending_.end()) {
    // A retried acquisition while the original is still in progress (its
    // pipeline died with a server crash; the locks survived, the
    // continuation did not): keep the original's progress, its place in
    // every wait queue, and steer the grant to the retry's continuation.
    pit->second.granted = std::move(granted);
    return;
  }
  const auto rit = releasing_.find(exec);
  if (rit != releasing_.end() && !keys.empty()) {
    // Wait until this exec's releases have committed, so none of them can
    // land behind the new acquire (ResumeAfterRelease starts it).
    auto acquire = [this, exec, keys = std::move(keys), modes = std::move(modes),
                    granted = std::move(granted)] { AcquireAll(exec, keys, modes, granted); };
    if (after_release_.insert_or_assign(exec, std::move(acquire)).second) {
      groups_[static_cast<size_t>(*rit->second.begin())].raft->acquires_after_release->Increment();
    }
    return;
  }
  // Partition the sorted key set into per-shard runs, preserving key order
  // within each: the acquisition order is (shard, key), one total order for
  // every execution.
  std::vector<Run> by_shard(static_cast<size_t>(router_.shards()));
  for (size_t i = 0; i < keys.size(); ++i) {
    Run& run = by_shard[static_cast<size_t>(router_.ShardOf(keys[i]))];
    run.keys.push_back(std::move(keys[i]));
    run.modes.push_back(modes[i]);
  }
  PendingAcquire& acq = pending_[exec];
  acq.id = ++next_acquire_id_;
  for (int s = 0; s < router_.shards(); ++s) {
    Run& run = by_shard[static_cast<size_t>(s)];
    if (!run.keys.empty()) {
      run.shard = s;
      acq.runs.push_back(std::move(run));
    }
  }
  acq.granted = std::move(granted);
  // Locks this exec already holds (a retry after a crash) count at once.
  Advance(exec, acq);
  if (acq.next == acq.runs.size()) {
    // Nothing to take (or all held): the grant is still a zero-delay event,
    // so `granted` never runs inside this call.
    ScheduleHandOff(exec, acq.id);
    return;
  }
  SubmitNext(exec, acq);
}

void LockService::Advance(ExecutionId exec, PendingAcquire& acq) const {
  const auto hit = held_.find(exec);
  if (hit == held_.end()) {
    return;
  }
  for (; acq.next < acq.runs.size(); ++acq.next) {
    for (const Key& key : acq.runs[acq.next].keys) {
      if (hit->second.count(key) == 0) {
        return;
      }
    }
  }
}

void LockService::SubmitNext(ExecutionId exec, const PendingAcquire& acq) {
  const Run& run = acq.runs[acq.next];
  LockGroup& group = groups_[static_cast<size_t>(run.shard)];
  // One run, one step: the table grants what is free and queues the rest
  // atomically. Its grants continue the chain (OnGrant).
  if (group.raft == nullptr) {
    std::vector<LockTable::Grant> grants;
    group.table.Acquire(exec, run.keys, run.modes, &grants);
    OnGrants(run.shard, grants);
    return;
  }
  group.raft->cluster->SubmitToLeader(LockStateMachine::EncodeAcquire(exec, run.keys, run.modes),
                                      [this, exec, shard = run.shard](LogIndex index) {
                                        if (index == 0) {
                                          OnAcquireSubmitFailed(exec, shard);
                                        }
                                      });
}

void LockService::ScheduleHandOff(ExecutionId exec, uint64_t id, SimDuration delay) {
  // An event, not a call: grants arrive inside a table operation or Raft's
  // apply path, and callers never re-enter the service from inside it.
  sim_->Schedule(delay, [this, exec, id] {
    const auto it = pending_.find(exec);
    if (it == pending_.end() || it->second.id != id) {
      return;  // Released before the hand-off.
    }
    PendingAcquire& acq = it->second;
    if (acq.next < acq.runs.size()) {
      SubmitNext(exec, acq);
      return;
    }
    const std::function<void()> granted = std::move(acq.granted);
    pending_.erase(it);
    granted();
  });
}

void LockService::OnAcquireSubmitFailed(ExecutionId exec, int shard) {
  const auto it = pending_.find(exec);
  if (it == pending_.end()) {
    return;  // Granted through another path or released meanwhile.
  }
  // The proposal outlived the submit deadline (a leaderless spell, or the
  // proposing leader lost its term). The command may or may not be in some
  // log; resubmitting is idempotent either way, and *not* resubmitting
  // would stall the acquisition forever.
  groups_[static_cast<size_t>(shard)].raft->acquire_resubmits->Increment();
  RLOG(kWarn) << "replicated acquire proposal timed out; resubmitting exec=" << exec;
  ScheduleHandOff(exec, it->second.id, raft_options_.election_timeout_min);
}

void LockService::OnGrants(int shard, const std::vector<LockTable::Grant>& grants) {
  for (const LockTable::Grant& grant : grants) {
    OnGrant(shard, grant.exec, grant.key);
  }
}

void LockService::OnGrant(int shard, ExecutionId exec, const Key& key) {
  const auto it = pending_.find(exec);
  if (it == pending_.end() && held_.count(exec) == 0) {
    // A stray grant: `exec` released before it committed. A release behind
    // it in the group's log frees the lock; one already in flight does. A
    // local group cancels a releasing execution's waits, so never grants it.
    assert(groups_[static_cast<size_t>(shard)].raft != nullptr && "stray grant in a local group");
    RaftGroup& group = *groups_[static_cast<size_t>(shard)].raft;
    if (releasing_[exec].insert(shard).second) {
      group.compensating_releases->Increment();
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
  if (before == acq.runs.size()) {
    return;  // The hand-off to `granted` is already scheduled.
  }
  Advance(exec, acq);
  if (acq.next != before) {
    ScheduleHandOff(exec, acq.id);
  }
}

void LockService::ReleaseAll(ExecutionId exec) {
  // The groups that may hold state for this exec: those of every held key,
  // plus those up to its run in flight (a submitted but ungranted run may
  // wait in its group's table).
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
    for (size_t r = 0; r < acq.runs.size() && r <= acq.next; ++r) {
      shards.insert(acq.runs[r].shard);
    }
    if (acq.next < acq.runs.size()) {
      // Only the run in flight can wait. A local group drops its waits now,
      // which may unblock the waiters behind them.
      const Run& run = acq.runs[acq.next];
      LockGroup& group = groups_[static_cast<size_t>(run.shard)];
      if (group.raft == nullptr) {
        std::vector<LockTable::Grant> grants;
        group.table.CancelWaits(exec, run.keys, &grants);
        OnGrants(run.shard, grants);
      }
    }
    pending_.erase(pit);
  }
  after_release_.erase(exec);
  for (const int shard : shards) {
    Release(exec, shard);
  }
}

void LockService::Release(ExecutionId exec, int shard) {
  LockGroup& group = groups_[static_cast<size_t>(shard)];
  if (group.raft == nullptr) {
    std::vector<LockTable::Grant> grants;
    group.table.Release(exec, &grants);
    OnGrants(shard, grants);
  } else if (releasing_[exec].insert(shard).second) {
    SubmitRelease(exec, shard);
  }
}

void LockService::SubmitRelease(ExecutionId exec, int shard) {
  RaftGroup& group = *groups_[static_cast<size_t>(shard)].raft;
  group.cluster->SubmitToLeader(
      LockStateMachine::EncodeRelease(exec), [this, &group, exec, shard](LogIndex index) {
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
        group.release_retries->Increment();
        RLOG(kWarn) << "replicated release timed out; retrying exec=" << exec;
        sim_->Schedule(raft_options_.election_timeout_min, [this, exec, shard] {
          const auto rit2 = releasing_.find(exec);
          if (rit2 != releasing_.end() && rit2->second.count(shard) > 0) {
            SubmitRelease(exec, shard);
          }
        });
      });
}

void LockService::ResumeAfterRelease(ExecutionId exec) {
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
