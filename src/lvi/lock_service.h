// LockService: where the LVI server keeps its locks.
//
// Two implementations:
//
//  - LocalLockService (§4): the server's in-memory lock tables, persisted to
//    an EBS volume; acquisition costs no extra round trips. The paper's
//    singleton server is one table. With `shards` > 1 there is one LockTable
//    per key-range shard (ShardRouter): acquisition partitions the request's
//    sorted key set into per-shard groups and takes the groups strictly in
//    ascending shard index, each as one atomic run in its shard's table.
//    Group hand-off rides on zero-delay grant events, so sharding adds no
//    virtual time to an uncontended acquire.
//  - ReplicatedLockService (§5.6): the highly available variant stores locks
//    in a 3-node etcd (Raft) cluster across availability zones. The paper
//    commits each lock on its own, in series (~2.3 ms per lock, so ~2.3·L ms
//    for L locks), and leaves batching as future work. This service batches:
//    an execution's keys in one group go to that group as one acquire
//    command, so a request pays one commit (~2.3 ms) per lock group it
//    touches, whatever its lock count. With `shards` > 1 it runs one
//    independent Raft group per key-range shard (multi-Raft): requests are
//    re-ordered into the same (shard, key) order the in-memory service uses
//    and the groups are taken in ascending order, one run at a time, while
//    unrelated shards commit in parallel.
//
// Both services apply the same LockTable rule, and in both a group's runs
// apply atomically in one order (a table's calls, or a Raft group's log)
// while each execution takes its groups in ascending order. That is the
// deadlock-freedom argument (docs/linearizability.md).

#ifndef RADICAL_SRC_LVI_LOCK_SERVICE_H_
#define RADICAL_SRC_LVI_LOCK_SERVICE_H_

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/lvi/lock_state_machine.h"
#include "src/lvi/shard_router.h"
#include "src/obs/metrics.h"
#include "src/raft/cluster.h"

namespace radical {

class LockService {
 public:
  virtual ~LockService() = default;

  // Acquires locks on all `keys` (sorted lexicographically) with matching
  // `modes`; `granted` fires once every lock is held, never inside this
  // call. Keys `exec` already holds count as granted, and a second call
  // while the first is still in progress merges into it (the new `granted`
  // replaces the old one): a retried LVI request whose original attempt
  // died with a server crash finds its locks, or its place in the queues.
  virtual void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                          std::function<void()> granted) = 0;

  // Releases everything `exec` holds and abandons its acquisition.
  virtual void ReleaseAll(ExecutionId exec) = 0;
};

// In-memory lock tables, one per key-range shard (one for the paper's
// singleton server).
class LocalLockService : public LockService {
 public:
  explicit LocalLockService(Simulator* sim, int shards = 1);

  void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                  std::function<void()> granted) override;
  void ReleaseAll(ExecutionId exec) override;

  int shards() const { return router_.shards(); }
  const ShardRouter& router() const { return router_; }
  LockTable& table(int shard = 0) { return tables_[static_cast<size_t>(shard)]; }

  // Aggregate statistics across shards.
  uint64_t total_acquisitions() const;
  uint64_t total_waits() const;

 private:
  struct ShardGroup {
    int shard = 0;
    std::vector<Key> keys;
    std::vector<LockMode> modes;
  };
  // One execution's acquisition: its groups in ascending shard order, the
  // one in flight, and how many keys of that group's run still wait.
  struct Pending {
    uint64_t id = 0;  // Tells a stale hand-off event from this acquisition's.
    std::vector<ShardGroup> groups;
    size_t next = 0;
    size_t ungranted = 0;
    std::function<void()> granted;
  };

  // Applies `acq`'s run on `groups[next]`; schedules the hand-off once all
  // of it is held.
  void AcquireGroup(ExecutionId exec, Pending& acq);
  // A zero-delay event moves `acq` to its next group, or fires `granted`
  // after the last one, unless `exec` released meanwhile.
  void ScheduleHandOff(ExecutionId exec, const Pending& acq);
  void OnGrants(const std::vector<LockTable::Grant>& grants);

  Simulator* sim_;
  ShardRouter router_;
  std::vector<LockTable> tables_;
  std::unordered_map<ExecutionId, Pending> pending_;
  uint64_t next_pending_id_ = 0;
};

// Locks behind Raft (etcd-like) groups. Owns the groups and their per-node
// lock state machines, and acts on each committed log entry's grants once:
// the first replica to apply an index reports them, and every later apply of
// that index (followers, a restarted replica replaying its log) is ignored.
class ReplicatedLockService : public LockService {
 public:
  // `node_count` is 3 in the paper's deployment (one per availability zone).
  // `shards` > 1 partitions the key space across that many independent Raft
  // groups (each `node_count` wide) keyed by ShardRouter.
  ReplicatedLockService(Simulator* sim, int node_count, RaftOptions raft_options = {},
                        LocalMeshOptions mesh_options = {}, int shards = 1);
  ~ReplicatedLockService() override;

  // Elects the initial leader of every group; call once before issuing
  // acquisitions. Returns false if any group failed to elect
  // (misconfiguration).
  bool Bootstrap();

  void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                  std::function<void()> granted) override;
  void ReleaseAll(ExecutionId exec) override;

  int shards() const { return router_.shards(); }
  const ShardRouter& router() const { return router_; }
  RaftCluster& cluster(int shard = 0) { return *groups_[static_cast<size_t>(shard)].cluster; }
  // The group leader's view of the lock state (tests).
  const LockStateMachine* LeaderState(int shard = 0) const;

  // Liveness counters, summed over the groups. Each group keeps its own in
  // the simulator's MetricsRegistry under its RaftCluster's metric scope
  // ("raft", or "raft.shard<g>" with several groups).
  // Acquire proposals that timed out (e.g. a leaderless spell outlasting the
  // submit deadline) and were resubmitted instead of stalling forever.
  uint64_t acquire_resubmits() const { return Sum(&LockGroup::acquire_resubmits); }
  // Release proposals that timed out and were retried until committed
  // (dropping one would leak the lock in the replicated table).
  uint64_t release_retries() const { return Sum(&LockGroup::release_retries); }
  // Releases submitted for a stray grant: one that committed after its
  // execution released (it was queued on the key, or a resubmitted acquire
  // landed late in the log).
  uint64_t compensating_releases() const { return Sum(&LockGroup::compensating_releases); }
  // Acquisitions that waited for the same execution's releases in flight to
  // commit before starting.
  uint64_t acquires_after_release() const { return Sum(&LockGroup::acquires_after_release); }

  // No acquisition, holding or release in flight: the service keeps no
  // per-execution state (tests).
  bool idle() const {
    return pending_.empty() && held_.empty() && releasing_.empty() && after_release_.empty();
  }

 private:
  struct LockGroup {
    std::vector<std::unique_ptr<LockStateMachine>> machines;  // One per node.
    std::unique_ptr<RaftCluster> cluster;
    // Highest log index whose grants the service has acted on.
    LogIndex applied = 0;
    obs::Counter* acquire_resubmits = nullptr;
    obs::Counter* release_retries = nullptr;
    obs::Counter* compensating_releases = nullptr;
    obs::Counter* acquires_after_release = nullptr;
  };

  struct PendingAcquire {
    // Keys re-ordered into (shard, key) order; `shard_of` is parallel.
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    std::vector<int> shard_of;
    // First key of the run in flight through Raft (see RunEnd).
    size_t next = 0;
    std::function<void()> granted;
  };

  void BuildGroup(int g, int node_count, const RaftOptions& raft_options,
                  const LocalMeshOptions& mesh_options);
  // End of the run starting at `acq.next`: the contiguous same-shard keys.
  size_t RunEnd(const PendingAcquire& acq) const;
  // Moves `acq.next` past the runs `exec` already holds; true once every
  // key is held.
  bool Advance(ExecutionId exec, PendingAcquire& acq) const;
  // Submits `exec`'s run at `next` as one command; continues on grant.
  void SubmitNext(ExecutionId exec);
  // An acquire proposal timed out; resubmit once the dust settles.
  void OnAcquireSubmitFailed(ExecutionId exec, int shard);
  void OnGrant(int shard, ExecutionId exec, const Key& key);
  // Submits (and retries until committed) `exec`'s release in `shard`.
  void SubmitRelease(ExecutionId exec, int shard);
  // Starts `exec`'s parked acquisition, if any, once no release of it is in
  // flight.
  void ResumeAfterRelease(ExecutionId exec);
  uint64_t Sum(obs::Counter* LockGroup::*counter) const;

  Simulator* sim_;
  RaftOptions raft_options_;
  ShardRouter router_;
  std::vector<LockGroup> groups_;
  std::unordered_map<ExecutionId, PendingAcquire> pending_;
  // Keys each execution holds, from the grants acted on; erased at
  // ReleaseAll.
  std::unordered_map<ExecutionId, std::set<Key>> held_;
  // Shards with a release submitted but not yet committed, per exec.
  std::unordered_map<ExecutionId, std::set<int>> releasing_;
  // Acquisitions made while the exec's releases were in flight, each as the
  // AcquireAll call to make once they commit. RaftCluster resubmits a release
  // whose leader lost its term, so one release can commit twice; a copy
  // landing after a fresh acquire would free its locks.
  std::unordered_map<ExecutionId, std::function<void()>> after_release_;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_SERVICE_H_
