// LockService: where the LVI server keeps its locks.
//
// The key space is split into key-range shards (ShardRouter), one lock group
// each, and a group is one of two kinds:
//
//  - local (§4): the server's in-memory LockTable, persisted to an EBS
//    volume. A run applies to the table in the call that submits it, so its
//    "log" commits at once and acquisition costs no extra round trips. The
//    paper's singleton server is one local group.
//  - Raft (§5.6): the highly available variant stores locks in a 3-node etcd
//    (Raft) cluster across availability zones; each node applies committed
//    runs to its own LockStateMachine. The paper commits each lock on its
//    own, in series (~2.3 ms per lock), and leaves batching as future work.
//    Here a run is one command, so a request pays one commit per group it
//    touches, whatever its lock count, and unrelated groups commit in
//    parallel (multi-Raft).
//
// One chain serves both kinds. An acquisition re-orders its keys into
// (shard, key) order and takes its groups in ascending order, one run (its
// keys in one group) at a time; a run that is fully held hands off to the
// next in a zero-delay event, and `granted` fires from the event after the
// last. Every group's runs apply atomically in one order (a table's calls,
// or a Raft group's log). That is the deadlock-freedom argument
// (docs/linearizability.md).
//
// Only Raft groups lose and duplicate commands, so only they carry recovery:
// a timed-out acquire is resubmitted, a release is retried until it commits,
// a grant that lands after its execution released is freed by a
// compensating release, and an acquisition made while the same execution's
// releases are in flight waits for them to commit.

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
  // `node_count` 0 keeps every group local; otherwise each group is a Raft
  // cluster that wide (3 in the paper's deployment, one node per
  // availability zone). `shards` is the number of groups, keyed by
  // ShardRouter.
  explicit LockService(Simulator* sim, int node_count = 0, RaftOptions raft_options = {},
                       LocalMeshOptions mesh_options = {}, int shards = 1);
  ~LockService();

  LockService(const LockService&) = delete;
  LockService& operator=(const LockService&) = delete;

  // Elects the initial leader of every Raft group; call once before issuing
  // acquisitions. Returns false if any group failed to elect
  // (misconfiguration).
  bool Bootstrap();

  // Acquires locks on all `keys` (sorted lexicographically) with matching
  // `modes`; `granted` fires once every lock is held, never inside this
  // call, and not at all if `exec` releases first. Keys `exec` already holds
  // count as granted, and a second call while the first is still in
  // progress merges into it (the new `granted` replaces the old one): a
  // retried LVI request whose original attempt died with a server crash
  // finds its locks, or its place in the queues.
  void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                  std::function<void()> granted);

  // Releases everything `exec` holds and abandons its acquisition. A local
  // group drops the waits of the run in flight first, then releases; a Raft
  // group commits a release that leaves them, and a grant that lands after
  // it is compensated. An execution with nothing held or in flight costs
  // nothing.
  void ReleaseAll(ExecutionId exec);

  bool replicated() const { return groups_.front().raft != nullptr; }
  int shards() const { return router_.shards(); }
  const ShardRouter& router() const { return router_; }
  // A local group's table.
  LockTable& table(int shard = 0) { return groups_[static_cast<size_t>(shard)].table; }
  // A Raft group's cluster, and its leader's view of the lock state (tests).
  RaftCluster& cluster(int shard = 0) { return *groups_[static_cast<size_t>(shard)].raft->cluster; }
  const LockStateMachine* LeaderState(int shard = 0) const;

  // Local tables' statistics, summed over the groups.
  uint64_t total_acquisitions() const;
  uint64_t total_waits() const;

  // Raft liveness counters, summed over the groups. Each group keeps its own
  // in the simulator's MetricsRegistry under its RaftCluster's metric scope
  // ("raft", or "raft.shard<g>" with several groups).
  // Acquire proposals that timed out (e.g. a leaderless spell outlasting the
  // submit deadline) and were resubmitted instead of stalling forever.
  uint64_t acquire_resubmits() const { return Sum(&RaftGroup::acquire_resubmits); }
  // Release proposals that timed out and were retried until committed
  // (dropping one would leak the lock in the replicated table).
  uint64_t release_retries() const { return Sum(&RaftGroup::release_retries); }
  // Releases submitted for a stray grant: one that committed after its
  // execution released (it was queued on the key, or a resubmitted acquire
  // landed late in the log).
  uint64_t compensating_releases() const { return Sum(&RaftGroup::compensating_releases); }
  // Acquisitions that waited for the same execution's releases in flight to
  // commit before starting.
  uint64_t acquires_after_release() const { return Sum(&RaftGroup::acquires_after_release); }

  // No acquisition, holding or release in flight: the service keeps no
  // per-execution state (tests).
  bool idle() const {
    return pending_.empty() && held_.empty() && releasing_.empty() && after_release_.empty();
  }

 private:
  // A Raft group: the cluster, one lock state machine per node, and its
  // recovery counters.
  struct RaftGroup {
    std::vector<std::unique_ptr<LockStateMachine>> machines;
    std::unique_ptr<RaftCluster> cluster;
    // Highest log index whose grants the service has acted on.
    LogIndex applied = 0;
    obs::Counter* acquire_resubmits = nullptr;
    obs::Counter* release_retries = nullptr;
    obs::Counter* compensating_releases = nullptr;
    obs::Counter* acquires_after_release = nullptr;
  };
  // One shard's locks: `table` in a local group; a Raft group (`raft` set)
  // keeps them in its machines.
  struct LockGroup {
    LockTable table;
    std::unique_ptr<RaftGroup> raft;
  };

  // One execution's keys in one group.
  struct Run {
    int shard = 0;
    std::vector<Key> keys;
    std::vector<LockMode> modes;
  };
  struct PendingAcquire {
    uint64_t id = 0;  // Tells a stale hand-off event from this acquisition's.
    std::vector<Run> runs;  // In ascending shard order.
    size_t next = 0;        // The run in flight; runs.size() once all are held.
    std::function<void()> granted;
  };

  void BuildRaftGroup(int g, int node_count, const LocalMeshOptions& mesh_options);
  // Moves `acq.next` past the runs `exec` already holds.
  void Advance(ExecutionId exec, PendingAcquire& acq) const;
  // Submits `acq`'s run in flight: a local group applies it at once, a Raft
  // group proposes it as one command.
  void SubmitNext(ExecutionId exec, const PendingAcquire& acq);
  // After `delay`, submits acquisition `id`'s next run, or fires its
  // `granted` after the last, unless `exec` released meanwhile.
  void ScheduleHandOff(ExecutionId exec, uint64_t id, SimDuration delay = 0);
  // An acquire proposal timed out; resubmit once the dust settles.
  void OnAcquireSubmitFailed(ExecutionId exec, int shard);
  void OnGrants(int shard, const std::vector<LockTable::Grant>& grants);
  void OnGrant(int shard, ExecutionId exec, const Key& key);
  // Releases `exec` in `shard`: at once in a local group; a Raft group
  // submits (and retries until committed) a release command.
  void Release(ExecutionId exec, int shard);
  void SubmitRelease(ExecutionId exec, int shard);
  // Starts `exec`'s parked acquisition, if any, once no release of it is in
  // flight.
  void ResumeAfterRelease(ExecutionId exec);
  uint64_t Sum(obs::Counter* RaftGroup::*counter) const;

  Simulator* sim_;
  RaftOptions raft_options_;
  ShardRouter router_;
  std::vector<LockGroup> groups_;
  std::unordered_map<ExecutionId, PendingAcquire> pending_;
  uint64_t next_acquire_id_ = 0;
  // Keys each execution holds, from the grants acted on; erased at
  // ReleaseAll.
  std::unordered_map<ExecutionId, std::set<Key>> held_;
  // Raft groups with a release submitted but not yet committed, per exec.
  std::unordered_map<ExecutionId, std::set<int>> releasing_;
  // Acquisitions made while the exec's releases were in flight, each as the
  // AcquireAll call to make once they commit. RaftCluster resubmits a release
  // whose leader lost its term, so one release can commit twice; a copy
  // landing after a fresh acquire would free its locks.
  std::unordered_map<ExecutionId, std::function<void()>> after_release_;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_SERVICE_H_
