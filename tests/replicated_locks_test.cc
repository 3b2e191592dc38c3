// Tests for the replicated (Raft-backed) lock service of §5.6: the original
// single-group configuration, one commit per run of an execution's keys in a
// group (the batching the paper leaves as future work; the service's only
// acquisition path), the multi-Raft sharded-group configuration,
// the acquire/release liveness machinery (resubmits and retried releases
// across leaderless spells), the grant bookkeeping (each committed grant
// acted on once), and a deployment-level sharded fault sweep with a
// linearizability check.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <vector>

#include "src/check/linearizability.h"
#include "src/common/stats.h"
#include "src/func/builder.h"
#include "src/lvi/lock_service.h"
#include "src/radical/deployment.h"
#include "src/raft/transport.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

NetworkOptions NoJitter() {
  NetworkOptions options;
  options.jitter_stddev_frac = 0.0;
  return options;
}

class ReplicatedLocksTest : public ::testing::Test {
 protected:
  ReplicatedLocksTest() : sim_(101), service_(&sim_, 3) {
    bootstrapped_ = service_.Bootstrap();
  }

  Simulator sim_;
  LockService service_;
  bool bootstrapped_ = false;
};

TEST_F(ReplicatedLocksTest, BootstrapElectsLeader) { EXPECT_TRUE(bootstrapped_); }

TEST_F(ReplicatedLocksTest, AcquireGrantsThroughRaftCommit) {
  bool granted = false;
  service_.AcquireAll(1, {"a", "b"}, {LockMode::kRead, LockMode::kWrite},
                      [&] { granted = true; });
  sim_.RunFor(Millis(100));
  EXPECT_TRUE(granted);
  const LockStateMachine* state = service_.LeaderState();
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->IsReadHeldBy("a", 1));
  EXPECT_TRUE(state->IsWriteHeldBy("b", 1));
}

TEST_F(ReplicatedLocksTest, SerialAcquisitionCostsLinearInLockCount) {
  // §5.6: the paper acquires locks in series, each one a Raft commit
  // (~2.3 ms), so an L-lock acquisition costs ~2.3*L ms. A caller that
  // chains single-key acquisitions, each issued once the previous one is
  // granted, reproduces that: one log entry and one commit per lock.
  sim_.RunFor(Millis(100));  // Settle heartbeats.
  auto measure = [&](int num_locks, ExecutionId exec) {
    std::vector<Key> keys;
    for (int i = 0; i < num_locks; ++i) {
      keys.push_back("exec" + std::to_string(exec) + "-k" + std::to_string(i));
    }
    const LogIndex log_before = service_.cluster().leader()->log().last_index();
    const SimTime start = sim_.Now();
    SimTime done = 0;
    std::function<void(size_t)> acquire = [&](size_t next) {
      if (next == keys.size()) {
        done = sim_.Now();
        return;
      }
      service_.AcquireAll(exec, {keys[next]}, {LockMode::kWrite},
                          [&acquire, next] { acquire(next + 1); });
    };
    acquire(0);
    sim_.RunFor(Millis(200));
    EXPECT_EQ(service_.cluster().leader()->log().last_index() - log_before,
              static_cast<LogIndex>(num_locks))
        << num_locks << " locks";
    EXPECT_EQ(service_.LeaderState()->HeldKeyCount(exec), static_cast<size_t>(num_locks));
    service_.ReleaseAll(exec);
    sim_.RunFor(Millis(50));
    return done - start;
  };
  const SimDuration one = measure(1, 10);
  const SimDuration four = measure(4, 11);
  EXPECT_GT(one, Millis(1));
  EXPECT_LT(one, Millis(5));
  // Roughly linear: 4 locks cost about 4x one lock.
  EXPECT_NEAR(static_cast<double>(four), 4.0 * static_cast<double>(one),
              static_cast<double>(one) * 1.6);
  EXPECT_TRUE(service_.idle());
}

TEST_F(ReplicatedLocksTest, EmptyAcquireGrantsImmediately) {
  bool granted = false;
  service_.AcquireAll(1, {}, {}, [&] { granted = true; });
  sim_.RunFor(Millis(10));
  EXPECT_TRUE(granted);
}

TEST_F(ReplicatedLocksTest, ContendedLockWaitsForRelease) {
  bool granted1 = false;
  bool granted2 = false;
  service_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { granted1 = true; });
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(granted1);
  service_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { granted2 = true; });
  sim_.RunFor(Millis(100));
  EXPECT_FALSE(granted2);
  service_.ReleaseAll(1);
  sim_.RunFor(Millis(100));
  EXPECT_TRUE(granted2);
}

TEST_F(ReplicatedLocksTest, ReadersShareThroughRaft) {
  int granted = 0;
  service_.AcquireAll(1, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  service_.AcquireAll(2, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  sim_.RunFor(Millis(200));
  EXPECT_EQ(granted, 2);
}

TEST_F(ReplicatedLocksTest, AcquireSucceedsDespiteLossyMesh) {
  ASSERT_TRUE(bootstrapped_);
  // 20% of all intra-DC messages are lost; Raft's retries (heartbeat-driven
  // re-replication) must still commit the acquire.
  service_.cluster().mesh().fabric().set_drop_probability(0.2);
  bool granted = false;
  service_.AcquireAll(1, {"a"}, {LockMode::kWrite}, [&] { granted = true; });
  sim_.RunFor(Seconds(2));
  EXPECT_TRUE(granted);
  EXPECT_GT(service_.cluster().mesh().fabric().messages_dropped(), 0u);
}

TEST_F(ReplicatedLocksTest, DroppingLeaderAppendsForcesReElection) {
  ASSERT_TRUE(bootstrapped_);
  sim_.RunFor(Millis(100));  // Settle heartbeats.
  const NodeId old_leader = service_.cluster().LeaderId();
  ASSERT_GE(old_leader, 0);
  // Mute only the leader's AppendEntries (votes still flow): followers stop
  // hearing heartbeats and must elect someone else.
  LocalMesh& mesh = service_.cluster().mesh();
  net::DropRule mute_leader;
  mute_leader.kind = net::MessageKind::kRaftAppend;
  mute_leader.from = mesh.endpoint(old_leader).id();
  const int rule = mesh.fabric().AddDropRule(mute_leader);
  sim_.RunFor(Seconds(3));
  EXPECT_GT(mesh.fabric().RuleDrops(rule), 0u);
  EXPECT_GT(mesh.fabric().drops_of(net::MessageKind::kRaftAppend), 0u);
  const NodeId new_leader = service_.cluster().LeaderId();
  ASSERT_GE(new_leader, 0);
  EXPECT_NE(new_leader, old_leader);
  // The cluster still commits through the new leader.
  bool granted = false;
  service_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { granted = true; });
  sim_.RunFor(Millis(500));
  EXPECT_TRUE(granted);
}

TEST_F(ReplicatedLocksTest, SurvivesLeaderFailover) {
  bool granted1 = false;
  service_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { granted1 = true; });
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(granted1);
  // Kill the leader; the locks live in the replicated state machine.
  const NodeId old_leader = service_.cluster().LeaderId();
  service_.cluster().CrashNode(old_leader);
  sim_.RunFor(Seconds(3));
  ASSERT_GE(service_.cluster().LeaderId(), 0);
  EXPECT_NE(service_.cluster().LeaderId(), old_leader);
  // The lock state survived: a competing acquire still waits...
  bool granted2 = false;
  service_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { granted2 = true; });
  sim_.RunFor(Millis(500));
  EXPECT_FALSE(granted2);
  // ...until the holder releases through the new leader.
  service_.ReleaseAll(1);
  sim_.RunFor(Millis(500));
  EXPECT_TRUE(granted2);
}

// --- One commit per run: an execution's keys in a group in one command -------

class BatchedLocksTest : public ::testing::Test {
 protected:
  BatchedLocksTest() : sim_(1111), service_(&sim_, 3) {
    bootstrapped_ = service_.Bootstrap();
    sim_.RunFor(Millis(100));
  }

  // Acquires `num_locks` fresh keys for `exec` and releases them; returns
  // the acquisition latency and checks it committed one log entry.
  SimDuration Acquire(ExecutionId exec, int num_locks) {
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    for (int i = 0; i < num_locks; ++i) {
      keys.push_back("e" + std::to_string(exec) + "-k" + std::to_string(i));
      modes.push_back(LockMode::kWrite);
    }
    const LogIndex log_before = service_.cluster().leader()->log().last_index();
    const SimTime start = sim_.Now();
    SimTime done = -1;
    service_.AcquireAll(exec, keys, modes, [&] { done = sim_.Now(); });
    sim_.RunFor(Millis(300));
    EXPECT_GE(done, 0) << "acquisition never granted";
    EXPECT_EQ(service_.cluster().leader()->log().last_index() - log_before, 1u)
        << num_locks << " locks";
    EXPECT_EQ(service_.LeaderState()->HeldKeyCount(exec), static_cast<size_t>(num_locks));
    service_.ReleaseAll(exec);
    sim_.RunFor(Millis(50));
    return done - start;
  }

  Simulator sim_;
  LockService service_;
  bool bootstrapped_ = false;
};

TEST_F(BatchedLocksTest, BatchGrantsAllKeysInOneCommit) {
  // An execution's keys in one group go to it as one run: one Raft commit
  // (~2.3 ms) whatever the lock count. The paper's implementation commits
  // each lock on its own, ~2.3*L ms for L locks (bench/sec5_6_replication
  // measures that by chaining single-key acquisitions).
  ASSERT_TRUE(bootstrapped_);
  const SimDuration one = Acquire(1, 1);
  const SimDuration four = Acquire(2, 4);
  const SimDuration eight = Acquire(3, 8);
  EXPECT_GT(one, Millis(1));
  EXPECT_LT(one, Millis(5));
  // About one commit each, far below the ~4x and ~8x of one commit per lock.
  EXPECT_LT(static_cast<double>(four), static_cast<double>(one) * 1.6);
  EXPECT_LT(static_cast<double>(eight), static_cast<double>(one) * 1.6);
  EXPECT_TRUE(service_.idle());
}

TEST_F(BatchedLocksTest, BatchedContentionStillQueuesFairly) {
  // A run applies atomically: the free key is granted in its commit, the
  // held one queues, and the acquisition completes once the holder releases.
  ASSERT_TRUE(bootstrapped_);
  bool granted1 = false;
  bool granted2 = false;
  service_.AcquireAll(10, {"shared"}, {LockMode::kWrite}, [&] { granted1 = true; });
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(granted1);
  service_.AcquireAll(11, {"other", "shared"}, {LockMode::kWrite, LockMode::kWrite},
                      [&] { granted2 = true; });
  sim_.RunFor(Millis(100));
  EXPECT_FALSE(granted2);  // Holds "other", queued on "shared".
  const LockStateMachine* state = service_.LeaderState();
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->IsWriteHeldBy("other", 11));
  EXPECT_EQ(state->WaitingCount("shared"), 1u);
  service_.ReleaseAll(10);
  sim_.RunFor(Millis(100));
  EXPECT_TRUE(granted2);
}

TEST_F(BatchedLocksTest, NoDeadlockAcrossOverlappingBatches) {
  // Overlapping key sets issued concurrently: each run applies atomically in
  // log order, so waits-for edges point only to earlier commits and every
  // acquisition completes.
  ASSERT_TRUE(bootstrapped_);
  int granted = 0;
  const std::vector<std::vector<Key>> sets = {
      {"a", "b"}, {"b", "c"}, {"a", "c"}, {"a", "b", "c"}, {"c"}};
  for (size_t i = 0; i < sets.size(); ++i) {
    const ExecutionId exec = 100 + i;
    std::vector<LockMode> modes(sets[i].size(), LockMode::kWrite);
    service_.AcquireAll(exec, sets[i], modes, [&granted, exec, this] {
      ++granted;
      sim_.Schedule(Millis(5), [this, exec] { service_.ReleaseAll(exec); });
    });
  }
  sim_.RunFor(Seconds(5));
  EXPECT_EQ(granted, 5);
  EXPECT_TRUE(service_.idle());
  EXPECT_EQ(service_.LeaderState()->TotalHeldKeys(), 0u);
}

// --- Liveness: acquires and releases across leaderless spells ---------------

TEST_F(ReplicatedLocksTest, StalledAcquireRecoversAfterLeaderlessWindow) {
  ASSERT_TRUE(bootstrapped_);
  sim_.RunFor(Millis(100));  // Settle heartbeats.
  // Kill the leader and one follower: 1 of 3 nodes left, no majority, so no
  // proposal can commit and no election can succeed.
  const NodeId leader = service_.cluster().LeaderId();
  service_.cluster().CrashNode(leader);
  service_.cluster().CrashNode((leader + 1) % 3);
  bool granted = false;
  service_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { granted = true; });
  // The submit deadline fires during the leaderless spell; before the fix the
  // proposal was dropped on the floor and the acquire stalled forever.
  sim_.RunFor(Seconds(6));
  EXPECT_FALSE(granted);
  service_.cluster().RestartNode(leader);
  service_.cluster().RestartNode((leader + 1) % 3);
  sim_.RunFor(Seconds(8));
  EXPECT_TRUE(granted);
  EXPECT_GE(service_.acquire_resubmits(), 1u);
  const LockStateMachine* state = service_.LeaderState();
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->IsWriteHeldBy("k", 1));
}

TEST_F(ReplicatedLocksTest, TimedOutReleaseRetriesUntilCommitted) {
  ASSERT_TRUE(bootstrapped_);
  bool granted1 = false;
  service_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { granted1 = true; });
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(granted1);
  // Majority loss, then release: the release proposal cannot commit until the
  // cluster heals. Before the fix the timed-out release was dropped and the
  // lock leaked forever in the replicated table.
  const NodeId leader = service_.cluster().LeaderId();
  service_.cluster().CrashNode(leader);
  service_.cluster().CrashNode((leader + 1) % 3);
  service_.ReleaseAll(1);
  sim_.RunFor(Seconds(7));
  service_.cluster().RestartNode(leader);
  service_.cluster().RestartNode((leader + 1) % 3);
  sim_.RunFor(Seconds(8));
  EXPECT_GE(service_.release_retries(), 1u);
  // The retried release committed: a competing writer gets the lock.
  bool granted2 = false;
  service_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { granted2 = true; });
  sim_.RunFor(Seconds(1));
  EXPECT_TRUE(granted2);
}

// --- Multi-Raft sharded lock groups -----------------------------------------

TEST(ShardedReplicatedLocksTest, AcquiresSpanIndependentGroups) {
  Simulator sim(303);
  LockService service(&sim, 3, RaftOptions{}, LocalMeshOptions{}, /*shards=*/4);
  ASSERT_EQ(service.shards(), 4);
  ASSERT_TRUE(service.Bootstrap());
  sim.RunFor(Millis(100));
  // Sorted key set (the interface contract) chosen to span several distinct
  // groups — short keys sharing a prefix tend to collapse onto one shard
  // (FNV-1a's high bits barely move), so vary lengths and first letters.
  const std::vector<Key> keys = {"a", "aa", "aaa", "b", "jaa", "k", "ka", "ra"};
  std::vector<LockMode> modes(keys.size(), LockMode::kWrite);
  std::set<int> groups_hit;
  for (const Key& key : keys) {
    groups_hit.insert(service.router().ShardOf(key));
  }
  ASSERT_GE(groups_hit.size(), 3u) << "pick keys spanning more groups";
  bool granted = false;
  service.AcquireAll(1, keys, modes, [&] { granted = true; });
  sim.RunFor(Millis(500));
  EXPECT_TRUE(granted);
  // Every lock lives in its own key's group, nowhere else.
  for (const Key& key : keys) {
    const int home = service.router().ShardOf(key);
    for (int g = 0; g < service.shards(); ++g) {
      const LockStateMachine* state = service.LeaderState(g);
      ASSERT_NE(state, nullptr) << "group " << g;
      EXPECT_EQ(state->IsWriteHeldBy(key, 1), g == home)
          << "key " << key << " in group " << g;
    }
  }
  service.ReleaseAll(1);
  sim.RunFor(Millis(500));
  for (int g = 0; g < service.shards(); ++g) {
    EXPECT_EQ(service.LeaderState(g)->HeldKeyCount(1), 0u) << "group " << g;
  }
}

TEST(ShardedReplicatedLocksTest, ContentionResolvesInShardKeyOrder) {
  // Two executions acquiring overlapping cross-group key sets must not
  // deadlock: both re-order their (sorted) keys into the same (shard, key)
  // total order, so the resource-ordering argument holds across groups.
  Simulator sim(307);
  LockService service(&sim, 3, RaftOptions{}, LocalMeshOptions{}, /*shards=*/4);
  ASSERT_TRUE(service.Bootstrap());
  sim.RunFor(Millis(100));
  const std::vector<Key> keys = {"a", "aa", "aaa", "b", "jaa", "k"};
  const std::vector<Key> overlap = {"aa", "b", "jaa"};
  const std::vector<LockMode> all_write(keys.size(), LockMode::kWrite);
  const std::vector<LockMode> overlap_write(overlap.size(), LockMode::kWrite);
  int granted = 0;
  service.AcquireAll(1, keys, all_write, [&] {
    ++granted;
    sim.Schedule(Millis(5), [&] { service.ReleaseAll(1); });
  });
  service.AcquireAll(2, overlap, overlap_write, [&] {
    ++granted;
    sim.Schedule(Millis(5), [&] { service.ReleaseAll(2); });
  });
  sim.RunFor(Seconds(2));
  EXPECT_EQ(granted, 2);
}

TEST(ShardedReplicatedLocksTest, AllReadAcquisitionCommitsOncePerGroup) {
  // Read locks take the same commit path as writes: one Raft entry in each
  // group holding some of the keys, carrying that group's run, and no entry
  // anywhere else.
  Simulator sim(313);
  LockService service(&sim, 3, RaftOptions{}, LocalMeshOptions{}, /*shards=*/2);
  ASSERT_TRUE(service.Bootstrap());
  sim.RunFor(Millis(300));
  const std::vector<Key> keys = {"a", "aa", "b", "jaa", "k", "ra"};
  std::vector<size_t> keys_in_group(static_cast<size_t>(service.shards()), 0);
  for (const Key& key : keys) {
    ++keys_in_group[static_cast<size_t>(service.router().ShardOf(key))];
  }
  ASSERT_GT(keys_in_group[0], 1u) << "pick keys spanning both groups, several in each";
  ASSERT_GT(keys_in_group[1], 1u) << "pick keys spanning both groups, several in each";
  std::vector<LogIndex> log_before;
  for (int g = 0; g < service.shards(); ++g) {
    ASSERT_NE(service.cluster(g).leader(), nullptr) << "group " << g;
    log_before.push_back(service.cluster(g).leader()->log().last_index());
  }
  bool granted = false;
  service.AcquireAll(1, keys, std::vector<LockMode>(keys.size(), LockMode::kRead),
                     [&] { granted = true; });
  sim.RunFor(Millis(500));
  EXPECT_TRUE(granted);
  for (int g = 0; g < service.shards(); ++g) {
    EXPECT_EQ(service.cluster(g).leader()->log().last_index() - log_before[g], 1u)
        << "group " << g;
  }
  for (const Key& key : keys) {
    EXPECT_TRUE(service.LeaderState(service.router().ShardOf(key))->IsReadHeldBy(key, 1))
        << "key " << key;
  }
}

// --- Grants acted on once per committed log entry --------------------------

// Parameter: the number of Raft lock groups.
class ReplicatedGrantBookkeepingTest : public ::testing::TestWithParam<int> {
 protected:
  // Two keys in every group, named after `exec`, sorted (the interface
  // contract).
  static std::vector<Key> KeysInEveryGroup(const LockService& service,
                                           ExecutionId exec) {
    std::vector<Key> keys;
    uint64_t candidate = 0;
    for (int g = 0; g < service.shards(); ++g) {
      for (int n = 0; n < 2; ++n) {
        Key key;
        do {
          key = "e" + std::to_string(exec) + "-" + std::to_string(candidate++);
        } while (service.router().ShardOf(key) != g);
        keys.push_back(std::move(key));
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  static std::vector<LogIndex> LogLengths(LockService& service) {
    std::vector<LogIndex> lengths;
    for (int g = 0; g < service.shards(); ++g) {
      lengths.push_back(service.cluster(g).leader()->log().last_index());
    }
    return lengths;
  }
};

TEST_P(ReplicatedGrantBookkeepingTest, EachCycleAppendsItsAcquiresAndOneReleasePerGroup) {
  // An execution that releases as soon as it is granted (what the LVI server
  // does for a read-only request) must cost each group its acquire command
  // plus one release, whichever replica applies last; afterwards the service
  // keeps nothing about the execution.
  Simulator sim(331);
  LockService service(&sim, 3, RaftOptions{}, LocalMeshOptions{}, GetParam());
  ASSERT_TRUE(service.Bootstrap());
  sim.RunFor(Millis(300));
  const std::vector<LogIndex> before = LogLengths(service);
  const int cycles = 12;
  int granted = 0;
  for (int i = 0; i < cycles; ++i) {
    const ExecutionId exec = 100 + static_cast<ExecutionId>(i);
    const std::vector<Key> keys = KeysInEveryGroup(service, exec);
    service.AcquireAll(exec, keys, std::vector<LockMode>(keys.size(), LockMode::kWrite),
                       [&, exec] {
                         ++granted;
                         service.ReleaseAll(exec);
                       });
    sim.RunFor(Millis(100));
  }
  sim.RunFor(Millis(500));
  EXPECT_EQ(granted, cycles);
  // Two keys per group, one acquire command for both, and one release.
  const LogIndex per_cycle = 2;
  const std::vector<LogIndex> after = LogLengths(service);
  for (int g = 0; g < service.shards(); ++g) {
    EXPECT_EQ(after[static_cast<size_t>(g)] - before[static_cast<size_t>(g)],
              per_cycle * cycles)
        << "group " << g;
    EXPECT_EQ(service.LeaderState(g)->TotalHeldKeys(), 0u) << "group " << g;
  }
  EXPECT_EQ(service.compensating_releases(), 0u);
  EXPECT_TRUE(service.idle());
}

TEST_P(ReplicatedGrantBookkeepingTest, RestartReplayAppendsNothing) {
  // A restarted replica replays every grant of the released executions; the
  // service acted on them already and must not answer the replay with
  // releases.
  Simulator sim(337);
  LockService service(&sim, 3, RaftOptions{}, LocalMeshOptions{}, GetParam());
  ASSERT_TRUE(service.Bootstrap());
  sim.RunFor(Millis(300));
  const int executions = 8;
  for (int i = 0; i < executions; ++i) {
    const ExecutionId exec = 200 + static_cast<ExecutionId>(i);
    const std::vector<Key> keys = KeysInEveryGroup(service, exec);
    service.AcquireAll(exec, keys, std::vector<LockMode>(keys.size(), LockMode::kWrite),
                       [&service, exec] { service.ReleaseAll(exec); });
    sim.RunFor(Millis(100));
  }
  sim.RunFor(Millis(500));
  ASSERT_TRUE(service.idle());
  const std::vector<LogIndex> before = LogLengths(service);
  for (int g = 0; g < service.shards(); ++g) {
    RaftCluster& cluster = service.cluster(g);
    const NodeId follower = (cluster.LeaderId() + 1) % cluster.size();
    cluster.CrashNode(follower);
    sim.RunFor(Millis(200));
    cluster.RestartNode(follower);
  }
  sim.RunFor(Seconds(1));
  for (int g = 0; g < service.shards(); ++g) {
    RaftCluster& cluster = service.cluster(g);
    const NodeId leader = cluster.LeaderId();
    cluster.CrashNode(leader);
    sim.RunFor(Seconds(2));
    cluster.RestartNode(leader);
  }
  sim.RunFor(Seconds(2));
  for (int g = 0; g < service.shards(); ++g) {
    RaftCluster& cluster = service.cluster(g);
    ASSERT_NE(cluster.leader(), nullptr) << "group " << g;
    EXPECT_EQ(cluster.leader()->log().last_index(), before[static_cast<size_t>(g)])
        << "group " << g;
    for (NodeId id = 0; id < cluster.size(); ++id) {
      EXPECT_EQ(cluster.node(id)->last_applied(), before[static_cast<size_t>(g)])
          << "group " << g << " node " << id;
    }
  }
  EXPECT_EQ(service.compensating_releases(), 0u);
  EXPECT_TRUE(service.idle());
}

TEST_P(ReplicatedGrantBookkeepingTest, LateGrantToReleasedWaiterIsCompensatedOnce) {
  // Execution 2 queues behind execution 1's write lock, then releases while
  // still queued: its release commits first and frees nothing, so the grant
  // it gets when execution 1 releases is stray. Exactly one compensating
  // release frees the key for the next writer.
  Simulator sim(347);
  LockService service(&sim, 3, RaftOptions{}, LocalMeshOptions{}, GetParam());
  ASSERT_TRUE(service.Bootstrap());
  sim.RunFor(Millis(300));
  const Key key = "k";
  const int group = service.router().ShardOf(key);
  bool granted1 = false;
  bool granted2 = false;
  service.AcquireAll(1, {key}, {LockMode::kWrite}, [&] { granted1 = true; });
  sim.RunFor(Millis(100));
  ASSERT_TRUE(granted1);
  service.AcquireAll(2, {key}, {LockMode::kWrite}, [&] { granted2 = true; });
  sim.RunFor(Millis(100));
  ASSERT_EQ(service.LeaderState(group)->WaitingCount(key), 1u);
  service.ReleaseAll(2);
  sim.RunFor(Millis(100));
  EXPECT_EQ(service.compensating_releases(), 0u);
  service.ReleaseAll(1);
  sim.RunFor(Millis(200));
  EXPECT_FALSE(granted2);
  EXPECT_EQ(service.compensating_releases(), 1u);
  RaftCluster& cluster = service.cluster(group);
  for (NodeId id = 0; id < cluster.size(); ++id) {
    EXPECT_EQ(cluster.node(id)->last_applied(), cluster.leader()->log().last_index());
  }
  for (int g = 0; g < service.shards(); ++g) {
    const LockStateMachine* state = service.LeaderState(g);
    ASSERT_NE(state, nullptr) << "group " << g;
    EXPECT_EQ(state->TotalHeldKeys(), 0u) << "group " << g;
  }
  bool granted3 = false;
  service.AcquireAll(3, {key}, {LockMode::kWrite}, [&] { granted3 = true; });
  sim.RunFor(Millis(100));
  EXPECT_TRUE(granted3);
  EXPECT_TRUE(service.LeaderState(group)->IsWriteHeldBy(key, 3));
  service.ReleaseAll(3);
  sim.RunFor(Millis(100));
  EXPECT_EQ(service.compensating_releases(), 1u);
  EXPECT_EQ(cluster.metric_scope(), service.shards() == 1 ? std::string("raft")
                                                         : "raft.shard" + std::to_string(group));
  EXPECT_EQ(sim.metrics().CounterValue(cluster.metric_scope() + ".compensating_releases"), 1u);
  EXPECT_TRUE(service.idle());
}

TEST_P(ReplicatedGrantBookkeepingTest, ReacquireAfterALostTermReleaseKeepsTheFreshLocks) {
  // An execution releases everything and at once acquires a larger set, as
  // the LVI server's rerun does, and every group's leader dies before the
  // release commits. RaftCluster resubmits the release to the next leader,
  // and the copy the dead leader already sent can commit too; the fresh
  // acquisition waits until the release has committed, so neither copy
  // lands behind it.
  Simulator sim(353);
  LockService service(&sim, 3, RaftOptions{}, LocalMeshOptions{}, GetParam());
  ASSERT_TRUE(service.Bootstrap());
  sim.RunFor(Millis(300));
  const ExecutionId exec = 7;
  const std::vector<Key> first = KeysInEveryGroup(service, exec);
  bool granted = false;
  service.AcquireAll(exec, first, std::vector<LockMode>(first.size(), LockMode::kWrite),
                     [&] { granted = true; });
  sim.RunFor(Millis(100));
  ASSERT_TRUE(granted);
  std::vector<Key> both = KeysInEveryGroup(service, 900);
  both.insert(both.end(), first.begin(), first.end());
  std::sort(both.begin(), both.end());
  service.ReleaseAll(exec);
  std::vector<NodeId> dead;
  for (int g = 0; g < service.shards(); ++g) {
    dead.push_back(service.cluster(g).LeaderId());
    service.cluster(g).CrashNode(dead.back());
  }
  bool regranted = false;
  service.AcquireAll(exec, both, std::vector<LockMode>(both.size(), LockMode::kWrite),
                     [&] { regranted = true; });
  EXPECT_EQ(service.acquires_after_release(), 1u);
  sim.RunFor(Seconds(3));
  ASSERT_TRUE(regranted);
  for (int g = 0; g < service.shards(); ++g) {
    service.cluster(g).RestartNode(dead[static_cast<size_t>(g)]);
  }
  sim.RunFor(Seconds(1));
  for (const Key& key : both) {
    const int group = service.router().ShardOf(key);
    ASSERT_NE(service.LeaderState(group), nullptr) << "group " << group;
    EXPECT_NE(service.cluster(group).LeaderId(), dead[static_cast<size_t>(group)]);
    EXPECT_TRUE(service.LeaderState(group)->IsWriteHeldBy(key, exec)) << "key " << key;
  }
  service.ReleaseAll(exec);
  sim.RunFor(Millis(500));
  for (int g = 0; g < service.shards(); ++g) {
    EXPECT_EQ(service.LeaderState(g)->TotalHeldKeys(), 0u) << "group " << g;
  }
  EXPECT_EQ(service.compensating_releases(), 0u);
  EXPECT_TRUE(service.idle());
}

INSTANTIATE_TEST_SUITE_P(Groups, ReplicatedGrantBookkeepingTest, ::testing::Values(1, 4),
                         ShardsName);

// --- Deployment-level fault sweep at one and four lock groups -------------

// Parameter: the server's shard count, hence the number of Raft lock groups.
class ReplicatedFaultSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplicatedFaultSweepTest, FaultSweepStaysLinearizable) {
  const int groups = GetParam();
  Simulator sim(515);
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;
  config.server.shards = groups;
  config.retry.request_timeout = Millis(400);
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions(),
                            /*replicated_locks=*/3);
  radical.RegisterFunction(Fn("reg_read", {"k"}, {
      Read("v", In("k")),
      Compute(Millis(5)),
      Return(V("v")),
  }));
  radical.RegisterFunction(Fn("reg_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Compute(Millis(5)),
      Return(In("v")),
  }));
  // Keys chosen to land in distinct lock groups (FNV-1a high bits), so at
  // four groups the sweep drives commits through several groups, not just one.
  const std::vector<Key> kKeys = {"a", "aa", "aaa"};
  for (const Key& key : kKeys) radical.Seed(key, Value("v0"));
  radical.WarmCaches();
  ASSERT_EQ(radical.locks().shards(), groups);
  {
    std::set<int> key_groups;
    for (const Key& key : kKeys) {
      key_groups.insert(radical.locks().router().ShardOf(key));
    }
    ASSERT_EQ(key_groups.size(), groups == 1 ? 1u : 3u);
  }

  // 10% loss on every LVI protocol leg.
  for (const net::MessageKind kind :
       {net::MessageKind::kLviRequest, net::MessageKind::kLviResponse,
        net::MessageKind::kWriteFollowup}) {
    net::DropRule rule;
    rule.kind = kind;
    rule.probability = 0.1;
    net.fabric().AddDropRule(rule);
  }

  HistoryRecorder history;
  Rng rng(99331);
  int unique = 0;
  const int total_ops = 36;
  for (int i = 0; i < total_ops; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const Key key = kKeys[rng.NextBelow(kKeys.size())];
    const bool is_write = rng.NextBool(0.5);
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(5)));
    sim.Schedule(at, [&, region, key, is_write] {
      const SimTime invoke = sim.Now();
      if (is_write) {
        const Value value("w" + std::to_string(unique++));
        radical.Invoke(region, "reg_write", {Value(key), value}, [&, key, value, invoke](Value) {
          history.Record(HistoryOp{true, key, value, invoke, sim.Now()});
        });
      } else {
        radical.Invoke(region, "reg_read", {Value(key)}, [&, key, invoke](Value result) {
          history.Record(HistoryOp{false, key, std::move(result), invoke, sim.Now()});
        });
      }
    });
  }
  // Crash every group's leader mid-run, staggered, and bring it back 800 ms
  // later: each group must re-elect and the service must re-route in-flight
  // acquires/releases without losing or double-granting a lock. Only the
  // crashed node restarts; the others never went down.
  std::vector<NodeId> crashed(static_cast<size_t>(groups), -1);
  for (int g = 0; g < groups; ++g) {
    sim.Schedule(Seconds(1) + g * Millis(900), [&radical, &crashed, g] {
      RaftCluster& cluster = radical.locks().cluster(g);
      const NodeId leader = cluster.LeaderId();
      if (leader < 0) return;
      cluster.CrashNode(leader);
      crashed[static_cast<size_t>(g)] = leader;
    });
    sim.Schedule(Seconds(1) + g * Millis(900) + Millis(800), [&radical, &crashed, g] {
      const NodeId id = crashed[static_cast<size_t>(g)];
      if (id >= 0) radical.locks().cluster(g).RestartNode(id);
    });
  }
  // Raft heartbeats run forever, so drive a bounded window instead of Run().
  sim.RunFor(Seconds(5) + Seconds(20));

  EXPECT_EQ(history.size(), static_cast<size_t>(total_ops));
  std::map<Key, Value> initials;
  for (const Key& key : kKeys) initials[key] = Value("v0");
  const LinearizabilityResult result = CheckHistory(history, initials);
  EXPECT_TRUE(result.linearizable) << result.violation;
  // No leaked locks once the dust settles.
  for (int g = 0; g < groups; ++g) {
    const LockStateMachine* state = radical.locks().LeaderState(g);
    ASSERT_NE(state, nullptr) << "group " << g;
    EXPECT_EQ(state->TotalHeldKeys(), 0u) << "group " << g;
  }
  EXPECT_TRUE(radical.server().idle());
}

INSTANTIATE_TEST_SUITE_P(Shards, ReplicatedFaultSweepTest, ::testing::Values(1, 4), ShardsName);

// --- One acquire and one release commit per lock group per request ----------

// Parameter: the server's shard count, hence the number of Raft lock groups.
class ReplicatedCommitCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplicatedCommitCountTest, MultiKeyReadCommitsOneAcquireAndOneReleasePerGroup) {
  // A read of hotel_search's shape (a geo cell, then the rate and
  // availability of three hotels: 7 keys) commits one acquire entry and one
  // release entry in each lock group holding some of its keys, and nothing
  // in the others, however many of its keys a group holds.
  Simulator sim(626);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalConfig config;
  config.server.shards = GetParam();
  RadicalDeployment radical(&sim, &net, config, {Region::kCA}, /*replicated_locks=*/3);
  const std::vector<Key> keys = {"geo:4",   "rate:h1",    "avail:h1:d", "rate:h2",
                                 "avail:h2:d", "rate:h3", "avail:h3:d"};
  StmtList body;
  for (size_t i = 0; i < keys.size(); ++i) {
    body.push_back(Read("v" + std::to_string(i), C(keys[i])));
    radical.Seed(keys[i], Value("x" + std::to_string(i)));
  }
  body.push_back(Compute(Millis(20)));
  body.push_back(Return(V("v0")));
  radical.RegisterFunction(Fn("search", {}, std::move(body)));
  radical.WarmCaches();
  LockService& locks = radical.locks();
  std::vector<int> keys_in_group(static_cast<size_t>(locks.shards()), 0);
  for (const Key& key : keys) {
    ++keys_in_group[static_cast<size_t>(locks.router().ShardOf(key))];
  }
  if (locks.shards() > 1) {
    ASSERT_GE(std::count_if(keys_in_group.begin(), keys_in_group.end(),
                            [](int n) { return n > 1; }),
              2)
        << "pick keys putting several into each of at least two groups";
  }
  sim.RunFor(Millis(300));  // Settle heartbeats.
  std::vector<LogIndex> before;
  for (int g = 0; g < locks.shards(); ++g) {
    ASSERT_NE(locks.cluster(g).leader(), nullptr) << "group " << g;
    before.push_back(locks.cluster(g).leader()->commit_index());
  }
  Value result;
  radical.Invoke(Region::kCA, "search", {}, [&](Value v) { result = std::move(v); });
  sim.RunFor(Seconds(1));
  EXPECT_EQ(result, Value("x0"));
  EXPECT_EQ(radical.runtime(Region::kCA).counters().Get("validated_speculative"), 1u);
  for (int g = 0; g < locks.shards(); ++g) {
    const LogIndex expected = keys_in_group[static_cast<size_t>(g)] > 0 ? 2 : 0;
    EXPECT_EQ(locks.cluster(g).leader()->commit_index() - before[static_cast<size_t>(g)],
              expected)
        << "group " << g << " holds " << keys_in_group[static_cast<size_t>(g)] << " keys";
  }
  EXPECT_TRUE(locks.idle());
  EXPECT_TRUE(radical.server().idle());
}

INSTANTIATE_TEST_SUITE_P(Shards, ReplicatedCommitCountTest, ::testing::Values(1, 4), ShardsName);

// --- Bounded state ----------------------------------------------------------

TEST(ReplicatedIdempotencyTest, AcknowledgedWritersLeaveTheIdempotencySet) {
  // Every writer records its idempotency key with its writes. The runtime's
  // next request acknowledges it, and the key goes with the cached reply: the
  // set holds the writers in flight, not every writer of the run.
  Simulator sim(27);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalDeployment radical(&sim, &net, RadicalConfig{}, {Region::kCA}, /*replicated_locks=*/3);
  radical.RegisterFunction(Fn("reg_set", {"k", "v"}, {
      Write(In("k"), In("v")),
      Return(In("v")),
  }));
  radical.Seed("k", Value("v0"));
  radical.WarmCaches();
  const std::string kept = radical.server().counters().prefix() + ".size.";
  constexpr int kWriters = 20;
  int done = 0;
  int64_t peak = 0;
  std::function<void()> write_next = [&] {
    radical.Invoke(Region::kCA, "reg_set", {Value("k"), Value(int64_t{done})}, [&](Value) {
      ++done;
      peak = std::max(peak, sim.metrics().GaugeValue(kept + "applied"));
      if (done < kWriters) {
        write_next();
      }
    });
  };
  write_next();
  sim.RunFor(Seconds(30));
  ASSERT_EQ(done, kWriters);
  EXPECT_EQ(radical.primary().VersionOf("k"), 1 + kWriters);
  EXPECT_EQ(radical.server().counters().Get("followup_applied"), static_cast<uint64_t>(kWriters));
  EXPECT_GE(peak, 1);
  // Only the last writer, which nothing acknowledged, is still kept.
  EXPECT_EQ(sim.metrics().GaugeValue(kept + "applied"), 1);
  EXPECT_EQ(sim.metrics().GaugeValue(kept + "lvi_replies"), 1);
  EXPECT_EQ(radical.server().counters().Get("at_most_once_refused"), 0u);
  EXPECT_TRUE(radical.server().idle());
}

TEST(ReplicatedLogCompactionTest, RestartedFollowerCatchesUpThroughInstallSnapshot) {
  // Every deployed lock group compacts its log. A follower that was down
  // while the leader compacted past its log rejoins from the snapshot.
  Simulator sim(41);
  LockService locks(&sim, 3);
  ASSERT_TRUE(locks.Bootstrap());
  RaftCluster& cluster = locks.cluster();
  sim.RunFor(Millis(100));
  const NodeId follower = (cluster.LeaderId() + 1) % 3;
  cluster.CrashNode(follower);
  // Acquire and release distinct keys until the leader has compacted.
  const auto threshold = static_cast<ExecutionId>(RaftOptions{}.compaction_threshold);
  int granted = 0;
  for (ExecutionId exec = 1; exec <= threshold; ++exec) {
    locks.AcquireAll(exec, {"k" + std::to_string(exec)}, {LockMode::kWrite}, [&, exec] {
      ++granted;
      locks.ReleaseAll(exec);
    });
  }
  sim.RunFor(Seconds(5));
  ASSERT_EQ(granted, static_cast<int>(threshold));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  ASSERT_GT(leader->log().snapshot_index(), 0u);
  EXPECT_LE(leader->log().last_index() - leader->log().snapshot_index(), threshold);
  ASSERT_EQ(cluster.mesh().fabric().messages_of(net::MessageKind::kRaftSnapshot), 0u);

  cluster.RestartNode(follower);
  sim.RunFor(Seconds(2));
  const RaftNode* rejoined = cluster.node(follower);
  EXPECT_GE(cluster.mesh().fabric().messages_of(net::MessageKind::kRaftSnapshot), 1u);
  EXPECT_GT(rejoined->log().snapshot_index(), 0u);
  EXPECT_EQ(rejoined->last_applied(), leader->last_applied());
  EXPECT_EQ(rejoined->log().last_index(), leader->log().last_index());
  EXPECT_EQ(locks.LeaderState()->TotalHeldKeys(), 0u);
  EXPECT_TRUE(locks.idle());
}

// --- Server shards set the lock-group count ---------------------------------

TEST(ShardedReplicatedDeploymentTest, ServerShardsSetTheLockGroupCount) {
  // One knob: `shards` sizes both the server's hot path and the multi-Raft
  // lock plane, so the two always share one ShardRouter partition.
  Simulator sim(616);
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;
  config.server.shards = 4;
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions(),
                            /*replicated_locks=*/3);
  EXPECT_EQ(radical.locks().shards(), 4);
  EXPECT_EQ(radical.config().server.shards, 4);
}

// --- Defaults pin: one shard is one lock group --------------------------------

// Runs a small replicated-deployment workload and fingerprints every latency,
// the primary-store state, and the simulator's event count.
std::string ReplicatedFingerprint(int shards) {
  Simulator sim(606);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalConfig config;
  config.server.shards = shards;
  RadicalDeployment radical(&sim, &net, config, {Region::kCA, Region::kJP},
                            /*replicated_locks=*/3);
  radical.RegisterFunction(Fn("reg_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Compute(Millis(5)),
      Return(In("v")),
  }));
  radical.RegisterFunction(Fn("reg_read", {"k"}, {
      Read("v", In("k")),
      Compute(Millis(5)),
      Return(V("v")),
  }));
  radical.Seed("ka", Value("v0"));
  radical.Seed("kb", Value("v0"));
  radical.WarmCaches();
  std::ostringstream fingerprint;
  int completed = 0;
  const std::vector<std::vector<Value>> calls = {
      {Value("ka"), Value("v1")}, {Value("kb"), Value("v2")}, {Value("ka"), Value("v3")}};
  for (size_t i = 0; i < calls.size(); ++i) {
    sim.Schedule(Millis(50) * static_cast<SimDuration>(i + 1), [&, i] {
      const SimTime start = sim.Now();
      radical.Invoke(Region::kCA, "reg_write", calls[i], [&, start](Value result) {
        fingerprint << (sim.Now() - start) << ":" << result.StableHash() << ";";
        ++completed;
      });
    });
  }
  sim.RunFor(Seconds(3));
  fingerprint << "|completed=" << completed;
  radical.primary().ForEachItem([&](const Key& key, const Item& item) {
    fingerprint << "|" << key << "@" << item.version << "=" << item.value.StableHash();
  });
  fingerprint << "|events=" << sim.events_fired() << "|now=" << sim.Now();
  return fingerprint.str();
}

TEST(ShardedReplicatedDeploymentTest, DefaultsAreByteIdenticalToSingleGroup) {
  // The default (one shard) runs a single lock group; the knob is not a
  // no-op, but it never changes application-visible state.
  const std::string one = ReplicatedFingerprint(1);
  const std::string four = ReplicatedFingerprint(4);
  // Sanity: the knob is not a no-op — four groups simulate differently.
  EXPECT_NE(one, four);
  // But the application-visible store state matches either way.
  auto store_part = [](const std::string& fp) {
    const size_t from = fp.find("|completed=");
    const size_t to = fp.find("|events=");
    return fp.substr(from, to - from);
  };
  EXPECT_EQ(store_part(one), store_part(four));
}

}  // namespace
}  // namespace radical
