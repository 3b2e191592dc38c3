// LockService: where the LVI server keeps its locks.
//
// Two implementations:
//
//  - LocalLockService (§4): the server's in-memory lock tables, persisted to
//    an EBS volume; acquisition costs no extra round trips. The paper's
//    singleton server is one table. With `shards` > 1 there is one LockTable
//    per key-range shard (ShardRouter): acquisition partitions the request's
//    sorted key set into per-shard groups and takes the groups strictly in
//    ascending shard index; within a shard, keys are taken in lexicographic
//    order. Every acquirer therefore follows the same total order
//    (shard, key), so the resource-ordering deadlock-freedom argument of the
//    single table carries over unchanged. Group hand-off rides on the
//    tables' zero-delay grant events, so sharding adds no virtual time to an
//    uncontended acquire.
//  - ReplicatedLockService (§5.6): the highly available variant stores locks
//    in a 3-node etcd (Raft) cluster across availability zones. Each lock
//    acquisition is one Raft commit (~2.3 ms) and the implementation
//    acquires locks in series, so an LVI request with L locks pays ~2.3·L ms
//    extra — the constant the paper reports. With `shards` > 1 it runs one
//    independent Raft group per key-range shard (multi-Raft): requests are
//    re-ordered into the same (shard, key) total order the in-memory service
//    uses, so deadlock freedom carries over, while unrelated shards commit
//    in parallel.

#ifndef RADICAL_SRC_LVI_LOCK_SERVICE_H_
#define RADICAL_SRC_LVI_LOCK_SERVICE_H_

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/lvi/lock_table.h"
#include "src/lvi/shard_router.h"
#include "src/raft/cluster.h"
#include "src/raft/lock_state_machine.h"

namespace radical {

class LockService {
 public:
  virtual ~LockService() = default;

  // Acquires locks on all `keys` (sorted lexicographically) with matching
  // `modes`; `granted` fires once every lock is held.
  virtual void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                          std::function<void()> granted) = 0;

  // Releases everything `exec` holds.
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
  LockTable& table(int shard = 0) { return *tables_[static_cast<size_t>(shard)]; }

  // Aggregate statistics across shards.
  uint64_t total_acquisitions() const;
  uint64_t total_waits() const;

 private:
  // Acquires `exec`'s group on `groups[index]`, then chains to index + 1;
  // fires `granted` after the last group.
  struct ShardGroup {
    int shard = 0;
    std::vector<Key> keys;
    std::vector<LockMode> modes;
  };
  void AcquireGroup(ExecutionId exec, std::shared_ptr<std::vector<ShardGroup>> groups,
                    size_t index, std::shared_ptr<std::function<void()>> granted);

  ShardRouter router_;
  std::vector<std::unique_ptr<LockTable>> tables_;
};

// Locks behind Raft (etcd-like) groups. Owns the groups and their per-node
// lock state machines; grants are observed on the applied command stream.
class ReplicatedLockService : public LockService {
 public:
  // `node_count` is 3 in the paper's deployment (one per availability zone).
  // `batched` enables the §5.6 batching optimization: one Raft commit per
  // contiguous same-shard key run instead of one per lock (the paper
  // acquires in series and notes batching as future work). `shards` > 1
  // partitions the key space across that many independent Raft groups
  // (each `node_count` wide) keyed by ShardRouter.
  ReplicatedLockService(Simulator* sim, int node_count, RaftOptions raft_options = {},
                        LocalMeshOptions mesh_options = {}, bool batched = false,
                        int shards = 1);
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

  // Liveness counters.
  // Acquire proposals that timed out (e.g. a leaderless spell outlasting the
  // submit deadline) and were resubmitted instead of stalling forever.
  uint64_t acquire_resubmits() const { return acquire_resubmits_; }
  // Release proposals that timed out and were retried until committed
  // (dropping one would leak the lock in the replicated table).
  uint64_t release_retries() const { return release_retries_; }

 private:
  struct LockGroup {
    std::vector<std::unique_ptr<LockStateMachine>> machines;  // One per node.
    std::unique_ptr<RaftCluster> cluster;
  };

  struct PendingAcquire {
    // Keys re-ordered into (shard, key) order; `shard_of` is parallel.
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    std::vector<int> shard_of;
    size_t next = 0;        // Serial mode: next key to submit through Raft.
    size_t batch_from = 0;  // Batched mode: first key of the current run.
    std::set<Key> granted_keys;
    std::function<void()> granted;
  };

  void BuildGroup(int g, int node_count, const RaftOptions& raft_options,
                  const LocalMeshOptions& mesh_options);
  // Submits the acquire command for `exec`'s next key; continues on grant.
  void SubmitNext(ExecutionId exec);
  // Batched mode: submits the contiguous same-shard run at `batch_from`.
  void SubmitNextBatch(ExecutionId exec);
  // End of the contiguous same-shard run starting at `from`.
  static size_t RunEnd(const PendingAcquire& acq, size_t from);
  // An acquire proposal timed out; resubmit once the dust settles.
  void OnAcquireSubmitFailed(ExecutionId exec);
  void OnGrant(ExecutionId exec, const Key& key);
  // Submits (and retries until committed) `exec`'s release in `shard`.
  void SubmitRelease(ExecutionId exec, int shard);

  Simulator* sim_;
  bool batched_;
  RaftOptions raft_options_;
  ShardRouter router_;
  std::vector<LockGroup> groups_;
  std::unordered_map<ExecutionId, PendingAcquire> pending_;
  // Dedupe grant notifications (each replica applies every command).
  std::set<std::pair<ExecutionId, Key>> seen_grants_;
  // Execs that have released: a grant that commits after the release (a
  // retried acquire landing late in the log) triggers a compensating
  // release instead of leaking the lock.
  std::set<ExecutionId> released_execs_;
  // Shards with a release submitted but not yet committed, per exec.
  std::unordered_map<ExecutionId, std::set<int>> releasing_;
  uint64_t acquire_resubmits_ = 0;
  uint64_t release_retries_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_SERVICE_H_
