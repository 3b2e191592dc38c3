// Tests for the one lock table, through the in-memory lock service (one
// shard, then four) and through the Raft replicas' LockStateMachine: reader
// sharing, writer exclusion, FIFO fairness, atomic acquire runs, snapshots
// and deadlock freedom.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/lvi/lock_service.h"

namespace radical {
namespace {

class LockTableTest : public ::testing::Test {
 protected:
  Simulator sim_;
  LocalLockService locks_{&sim_};
};

TEST_F(LockTableTest, UncontendedAcquireGrantsImmediately) {
  bool granted = false;
  locks_.AcquireAll(1, {"a", "b"}, {LockMode::kRead, LockMode::kWrite}, [&] { granted = true; });
  sim_.Run();
  EXPECT_TRUE(granted);
  EXPECT_TRUE(locks_.table().IsReadHeldBy("a", 1));
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("b", 1));
  EXPECT_EQ(locks_.table().HeldKeyCount(1), 2u);
}

TEST_F(LockTableTest, ReadersShare) {
  int granted = 0;
  locks_.AcquireAll(1, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  locks_.AcquireAll(2, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  sim_.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_TRUE(locks_.table().IsReadHeldBy("k", 1));
  EXPECT_TRUE(locks_.table().IsReadHeldBy("k", 2));
}

TEST_F(LockTableTest, WriterExcludesWriter) {
  int granted = 0;
  locks_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { ++granted; });
  locks_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { ++granted; });
  sim_.Run();
  EXPECT_EQ(granted, 1);
  locks_.ReleaseAll(1);
  sim_.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("k", 2));
}

TEST_F(LockTableTest, WriterExcludesReader) {
  int granted = 0;
  locks_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { ++granted; });
  locks_.AcquireAll(2, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  sim_.Run();
  EXPECT_EQ(granted, 1);
  EXPECT_EQ(locks_.table().WaitingCount("k"), 1u);
  locks_.ReleaseAll(1);
  sim_.Run();
  EXPECT_EQ(granted, 2);
}

TEST_F(LockTableTest, ReaderQueuesBehindWaitingWriterNoStarvation) {
  std::vector<int> order;
  locks_.AcquireAll(1, {"k"}, {LockMode::kRead}, [&] { order.push_back(1); });
  sim_.Run();
  locks_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { order.push_back(2); });
  // Reader 3 arrives while writer 2 waits: it must queue behind the writer,
  // not join reader 1.
  locks_.AcquireAll(3, {"k"}, {LockMode::kRead}, [&] { order.push_back(3); });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  locks_.ReleaseAll(1);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  locks_.ReleaseAll(2);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(LockTableTest, ConsecutiveReadersGrantedTogetherOnRelease) {
  int granted = 0;
  locks_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { ++granted; });
  sim_.Run();
  locks_.AcquireAll(2, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  locks_.AcquireAll(3, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  sim_.Run();
  EXPECT_EQ(granted, 1);
  locks_.ReleaseAll(1);
  sim_.Run();
  EXPECT_EQ(granted, 3);  // Both readers together.
}

TEST_F(LockTableTest, MultiKeyBlocksOnFirstContended) {
  // The run applies atomically: the free keys are taken at once, the
  // contended one queues, and the grant waits for it.
  bool granted2 = false;
  locks_.AcquireAll(1, {"b"}, {LockMode::kWrite}, [] {});
  sim_.Run();
  locks_.AcquireAll(2, {"a", "b", "c"},
                    {LockMode::kWrite, LockMode::kWrite, LockMode::kWrite},
                    [&] { granted2 = true; });
  sim_.Run();
  EXPECT_FALSE(granted2);
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("a", 2));
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("c", 2));  // Past the contended "b".
  EXPECT_EQ(locks_.table().WaitingCount("b"), 1u);
  locks_.ReleaseAll(1);
  sim_.Run();
  EXPECT_TRUE(granted2);
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("b", 2));
}

TEST_F(LockTableTest, ReleaseCancelsQueuedWaits) {
  bool granted2 = false;
  locks_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [] {});
  sim_.Run();
  locks_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { granted2 = true; });
  sim_.Run();
  locks_.ReleaseAll(2);  // Abandon the wait.
  locks_.ReleaseAll(1);
  sim_.Run();
  EXPECT_FALSE(granted2);
  EXPECT_EQ(locks_.table().WaitingCount("k"), 0u);
  EXPECT_EQ(locks_.table().active_lock_count(), 0u);
}

TEST_F(LockTableTest, CancelledWriterUnblocksTheReadersBehindIt) {
  // Reader 1 holds k, writer 2 waits, reader 3 waits behind the writer.
  // Abandoning the writer's wait makes reader 3 compatible with reader 1:
  // it is granted at once, not when reader 1 releases.
  bool granted3 = false;
  locks_.AcquireAll(1, {"k"}, {LockMode::kRead}, [] {});
  sim_.Run();
  locks_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [] {});
  locks_.AcquireAll(3, {"k"}, {LockMode::kRead}, [&] { granted3 = true; });
  sim_.Run();
  EXPECT_FALSE(granted3);
  locks_.ReleaseAll(2);
  sim_.Run();
  EXPECT_TRUE(granted3);
  EXPECT_TRUE(locks_.table().IsReadHeldBy("k", 1));
  EXPECT_TRUE(locks_.table().IsReadHeldBy("k", 3));
  EXPECT_EQ(locks_.table().WaitingCount("k"), 0u);
}

TEST_F(LockTableTest, ReleaseBeforeTheGrantEventDropsTheGrant) {
  // The grant is a zero-delay event; an execution that releases before it
  // runs abandons its acquisition, so `granted` never fires for it.
  bool granted = false;
  locks_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { granted = true; });
  locks_.ReleaseAll(1);
  sim_.Run();
  EXPECT_FALSE(granted);
  EXPECT_EQ(locks_.table().active_lock_count(), 0u);
}

TEST_F(LockTableTest, EmptyKeySetGrantsImmediately) {
  bool granted = false;
  locks_.AcquireAll(1, {}, {}, [&] { granted = true; });
  sim_.Run();
  EXPECT_TRUE(granted);
}

TEST_F(LockTableTest, StatsCountWaits) {
  locks_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [] {});
  sim_.Run();
  locks_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [] {});
  sim_.Run();
  EXPECT_EQ(locks_.table().acquisitions(), 2u);
  EXPECT_EQ(locks_.table().waits(), 1u);
}

TEST_F(LockTableTest, TableDrainsCleanAfterAllReleases) {
  for (ExecutionId id = 1; id <= 5; ++id) {
    locks_.AcquireAll(id, {"a", "b"}, {LockMode::kRead, LockMode::kWrite}, [] {});
  }
  sim_.Run();
  for (ExecutionId id = 1; id <= 5; ++id) {
    locks_.ReleaseAll(id);
    sim_.Run();
  }
  EXPECT_EQ(locks_.table().active_lock_count(), 0u);
}

// Deadlock-freedom property: many executions over overlapping sorted key
// sets must all eventually be granted (each run applies atomically, in
// call order).
TEST_F(LockTableTest, NoDeadlockUnderOverlappingKeySets) {
  Rng rng(1234);
  const std::vector<Key> universe = {"a", "b", "c", "d", "e"};
  int granted = 0;
  const int n = 200;
  for (ExecutionId id = 1; id <= n; ++id) {
    // Random sorted subset with random modes.
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    for (const Key& k : universe) {
      if (rng.NextBool(0.5)) {
        keys.push_back(k);
        modes.push_back(rng.NextBool(0.5) ? LockMode::kWrite : LockMode::kRead);
      }
    }
    locks_.AcquireAll(id, keys, modes, [&granted, id, this] {
      ++granted;
      // Hold briefly, then release.
      sim_.Schedule(Millis(1), [this, id] { locks_.ReleaseAll(id); });
    });
  }
  sim_.Run();
  EXPECT_EQ(granted, n);
  EXPECT_EQ(locks_.table().active_lock_count(), 0u);
}

TEST(ShardedLockTableTest, OverlappingRunsAcrossFourShardsInConflictingOrdersAllComplete) {
  // The in-memory twin of the replicated four-group test: each key set is
  // sorted lexicographically against a shard order that runs the other way,
  // with overlaps in every shard and mixed modes. Runs go in ascending shard
  // order and each applies atomically in its shard's table, so every grant
  // fires and every table drains.
  Simulator sim(311);
  LocalLockService locks(&sim, /*shards=*/4);
  // Two keys per shard, keys[2s] and keys[2s + 1] in shard s, named so that
  // a higher shard's keys sort first.
  std::vector<Key> keys;
  for (int s = 0; s < locks.shards(); ++s) {
    const std::string prefix(1, static_cast<char>('z' - s));
    for (uint64_t n = 0, found = 0; found < 2; ++n) {
      Key key = prefix + std::to_string(n);
      if (locks.router().ShardOf(key) == s) {
        keys.push_back(std::move(key));
        ++found;
      }
    }
  }
  const std::vector<std::vector<size_t>> picks = {
      {0, 2, 4, 6}, {1, 3, 5, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {6, 7, 0, 1}, {2, 5, 7}, {4, 3, 0}};
  int granted = 0;
  for (size_t i = 0; i < picks.size(); ++i) {
    std::vector<Key> set;
    for (const size_t k : picks[i]) {
      set.push_back(keys[k]);
    }
    std::sort(set.begin(), set.end());
    std::vector<LockMode> modes;
    for (size_t k = 0; k < set.size(); ++k) {
      modes.push_back((i + k) % 3 == 0 ? LockMode::kRead : LockMode::kWrite);
    }
    const ExecutionId exec = 500 + static_cast<ExecutionId>(i);
    // Staggered by less than a hold, so the acquisitions interleave.
    sim.Schedule(Micros(300) * static_cast<SimDuration>(i), [&, exec, set, modes] {
      locks.AcquireAll(exec, set, modes, [&, exec] {
        ++granted;
        sim.Schedule(Millis(3), [&locks, exec] { locks.ReleaseAll(exec); });
      });
    });
  }
  sim.Run();
  EXPECT_EQ(granted, static_cast<int>(picks.size()));
  EXPECT_GT(locks.total_waits(), 0u);
  for (int s = 0; s < locks.shards(); ++s) {
    EXPECT_EQ(locks.table(s).active_lock_count(), 0u) << "shard " << s;
  }
}

// --- LockStateMachine unit tests ---------------------------------------------------

TEST(LockStateMachineTest, AcquireReleaseCycle) {
  LockStateMachine sm;
  std::vector<LockStateMachine::Grant> grants =
      sm.Apply(1, LockStateMachine::EncodeAcquire(10, {"k"}, {LockMode::kWrite}));
  EXPECT_TRUE(sm.IsWriteHeldBy("k", 10));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].exec, 10u);
  EXPECT_TRUE(sm.Apply(2, LockStateMachine::EncodeAcquire(11, {"k"}, {LockMode::kWrite})).empty());
  EXPECT_EQ(sm.WaitingCount("k"), 1u);  // Queued.
  grants = sm.Apply(3, LockStateMachine::EncodeRelease(10));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].exec, 11u);
  EXPECT_EQ(grants[0].key, "k");
  EXPECT_TRUE(sm.IsWriteHeldBy("k", 11));
}

TEST(LockStateMachineTest, ReadersShareWritersQueue) {
  LockStateMachine sm;
  sm.Apply(1, LockStateMachine::EncodeAcquire(1, {"k"}, {LockMode::kRead}));
  sm.Apply(2, LockStateMachine::EncodeAcquire(2, {"k"}, {LockMode::kRead}));
  EXPECT_TRUE(sm.IsReadHeldBy("k", 1));
  EXPECT_TRUE(sm.IsReadHeldBy("k", 2));
  sm.Apply(3, LockStateMachine::EncodeAcquire(3, {"k"}, {LockMode::kWrite}));
  EXPECT_EQ(sm.WaitingCount("k"), 1u);
  sm.Apply(4, LockStateMachine::EncodeRelease(1));
  EXPECT_EQ(sm.WaitingCount("k"), 1u);  // Still one reader left.
  sm.Apply(5, LockStateMachine::EncodeRelease(2));
  EXPECT_TRUE(sm.IsWriteHeldBy("k", 3));
}

TEST(LockStateMachineTest, RunAppliesAtomicallyGrantingFreeKeysAndQueuingTheRest) {
  LockStateMachine sm;
  sm.Apply(1, LockStateMachine::EncodeAcquire(1, {"b"}, {LockMode::kWrite}));
  // One command, three keys: the free ones are granted in key order at this
  // index, the held one queues.
  std::vector<LockStateMachine::Grant> grants = sm.Apply(
      2, LockStateMachine::EncodeAcquire(
             2, {"a", "b", "c"}, {LockMode::kWrite, LockMode::kRead, LockMode::kWrite}));
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].key, "a");
  EXPECT_EQ(grants[1].key, "c");
  EXPECT_EQ(sm.HeldKeyCount(2), 2u);
  EXPECT_EQ(sm.WaitingCount("b"), 1u);
  grants = sm.Apply(3, LockStateMachine::EncodeRelease(1));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].exec, 2u);
  EXPECT_TRUE(sm.IsReadHeldBy("b", 2));
  EXPECT_EQ(sm.HeldKeyCount(2), 3u);
}

TEST(LockStateMachineTest, AcquireWireFormatIsARunOfModeKeyPairs) {
  EXPECT_EQ(LockStateMachine::EncodeAcquire(7, {"a", "b"}, {LockMode::kWrite, LockMode::kRead}),
            "batch 7 2 w a r b");
  // A one-key run is as long as the paper's one-lock-per-commit command
  // ("acquire 7 w key"), so single-lock commits cost the same bytes.
  EXPECT_EQ(LockStateMachine::EncodeAcquire(7, {"key"}, {LockMode::kWrite}).size(),
            std::string("acquire 7 w key").size());
}

TEST(LockStateMachineTest, DuplicateCommandsIdempotent) {
  LockStateMachine sm;
  const std::string acquire = LockStateMachine::EncodeAcquire(1, {"k"}, {LockMode::kWrite});
  EXPECT_EQ(sm.Apply(1, acquire).size(), 1u);
  EXPECT_TRUE(sm.Apply(2, acquire).empty());  // Duplicate: grants nothing, holds once.
  EXPECT_EQ(sm.HeldKeyCount(1), 1u);
  sm.Apply(3, LockStateMachine::EncodeRelease(1));
  sm.Apply(4, LockStateMachine::EncodeRelease(1));  // Idempotent.
  EXPECT_EQ(sm.HeldKeyCount(1), 0u);
}

TEST(LockStateMachineTest, UnknownCommandsIgnored) {
  LockStateMachine sm;
  sm.Apply(1, "garbage");
  sm.Apply(2, "");
  EXPECT_EQ(sm.last_applied(), 2u);
}

TEST(LockStateMachineSnapshotTest, RoundTripPreservesLocksAndQueues) {
  LockStateMachine sm;
  sm.Apply(1, LockStateMachine::EncodeAcquire(10, {"alpha"}, {LockMode::kWrite}));
  sm.Apply(2, LockStateMachine::EncodeAcquire(11, {"beta"}, {LockMode::kRead}));
  sm.Apply(3, LockStateMachine::EncodeAcquire(12, {"beta"}, {LockMode::kRead}));
  sm.Apply(4, LockStateMachine::EncodeAcquire(13, {"beta"}, {LockMode::kWrite}));  // Queued.
  sm.Apply(5, LockStateMachine::EncodeAcquire(14, {"beta"}, {LockMode::kRead}));   // Behind writer.
  const std::string snapshot = sm.EncodeSnapshot();

  LockStateMachine restored;
  restored.RestoreSnapshot(snapshot);
  EXPECT_TRUE(restored.IsWriteHeldBy("alpha", 10));
  EXPECT_TRUE(restored.IsReadHeldBy("beta", 11));
  EXPECT_TRUE(restored.IsReadHeldBy("beta", 12));
  EXPECT_EQ(restored.WaitingCount("beta"), 2u);
  EXPECT_EQ(restored.last_applied(), 5u);
  // Queue order and modes survive: releasing the readers grants the writer.
  EXPECT_TRUE(restored.Apply(6, LockStateMachine::EncodeRelease(11)).empty());
  const std::vector<LockStateMachine::Grant> grants =
      restored.Apply(7, LockStateMachine::EncodeRelease(12));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].exec, 13u);
  EXPECT_EQ(grants[0].key, "beta");
  EXPECT_TRUE(restored.IsWriteHeldBy("beta", 13));
}

TEST(LockStateMachineSnapshotTest, GarbageSnapshotYieldsEmptyMachine) {
  LockStateMachine sm;
  sm.RestoreSnapshot("not a snapshot at all");
  EXPECT_EQ(sm.HeldKeyCount(1), 0u);
}

}  // namespace
}  // namespace radical
