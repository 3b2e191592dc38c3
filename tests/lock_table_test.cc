// Tests for the one lock table and the one lock chain: through a single
// local lock group, through four groups of either kind (local and Raft), and
// through the Raft replicas' LockStateMachine: reader sharing, writer
// exclusion, FIFO fairness, atomic acquire runs, retry merges, snapshots and
// deadlock freedom.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/lvi/lock_service.h"

namespace radical {
namespace {

class LockTableTest : public ::testing::Test {
 protected:
  Simulator sim_;
  LockService locks_{&sim_};
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

// --- One chain over four groups of either kind ------------------------------

// Parameter: the lock groups' Raft width; 0 keeps them local.
class LockChainTest : public ::testing::TestWithParam<int> {
 protected:
  LockChainTest()
      : sim_(311), service_(&sim_, GetParam(), RaftOptions{}, LocalMeshOptions{}, /*shards=*/4) {
    bootstrapped_ = service_.Bootstrap();
    sim_.RunFor(Millis(300));
    // Two keys per group, keys_[2g] and keys_[2g + 1] in group g, named so
    // that a higher group's keys sort first.
    for (int g = 0; g < service_.shards(); ++g) {
      const std::string prefix(1, static_cast<char>('z' - g));
      for (uint64_t n = 0, found = 0; found < 2; ++n) {
        Key key = prefix + std::to_string(n);
        if (service_.router().ShardOf(key) == g) {
          keys_.push_back(std::move(key));
          ++found;
        }
      }
    }
  }

  // Group g's locks: a local group's table, or its Raft leader's.
  const LockTable* State(int g) {
    return GetParam() == 0 ? &service_.table(g) : service_.LeaderState(g);
  }
  // What group g has been asked to apply: a local table's acquire runs, or a
  // Raft group's log length.
  uint64_t Submitted(int g) {
    return GetParam() == 0 ? service_.table(g).acquisitions()
                           : service_.cluster(g).leader()->log().last_index();
  }
  std::vector<uint64_t> SubmittedToEachGroup() {
    std::vector<uint64_t> submitted;
    for (int g = 0; g < service_.shards(); ++g) {
      submitted.push_back(Submitted(g));
    }
    return submitted;
  }

  Simulator sim_;
  LockService service_;
  bool bootstrapped_ = false;
  std::vector<Key> keys_;
};

std::string KindName(const ::testing::TestParamInfo<int>& info) {
  return info.param == 0 ? "local" : "raft";
}

TEST_P(LockChainTest, OverlappingRunsAcrossFourGroupsInConflictingOrdersAllComplete) {
  // Concurrent multi-key acquisitions over four groups, each key set sorted
  // lexicographically (the interface contract) against a group order that
  // runs the other way, with overlaps in every group and mixed modes. Runs
  // go in ascending group order and each applies atomically in its group
  // (a table's calls, or a Raft group's log), so none deadlocks: all are
  // granted, and once released the service and every group are empty.
  ASSERT_TRUE(bootstrapped_);
  const std::vector<std::vector<size_t>> picks = {
      {0, 2, 4, 6}, {1, 3, 5, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {6, 7, 0, 1}, {2, 5, 7}, {4, 3, 0}};
  int granted = 0;
  for (size_t i = 0; i < picks.size(); ++i) {
    std::vector<Key> set;
    for (const size_t k : picks[i]) {
      set.push_back(keys_[k]);
    }
    std::sort(set.begin(), set.end());
    std::vector<LockMode> modes;
    for (size_t k = 0; k < set.size(); ++k) {
      modes.push_back((i + k) % 3 == 0 ? LockMode::kRead : LockMode::kWrite);
    }
    const ExecutionId exec = 500 + static_cast<ExecutionId>(i);
    // Staggered by less than a hold (and than one commit), so the runs
    // interleave.
    sim_.Schedule(Micros(300) * static_cast<SimDuration>(i), [&, exec, set, modes] {
      service_.AcquireAll(exec, set, modes, [&, exec] {
        ++granted;
        sim_.Schedule(Millis(3), [this, exec] { service_.ReleaseAll(exec); });
      });
    });
  }
  sim_.RunFor(Seconds(3));
  EXPECT_EQ(granted, static_cast<int>(picks.size()));
  EXPECT_TRUE(service_.idle());
  uint64_t waits = 0;
  for (int g = 0; g < service_.shards(); ++g) {
    const LockTable* state = State(g);
    ASSERT_NE(state, nullptr) << "group " << g;
    EXPECT_EQ(state->active_lock_count(), 0u) << "group " << g;
    EXPECT_EQ(state->TotalHeldKeys(), 0u) << "group " << g;
    waits += state->waits();
  }
  EXPECT_GT(waits, 0u);
  EXPECT_EQ(service_.compensating_releases(), 0u);
}

TEST_P(LockChainTest, RetryMergesIntoTheAcquisitionInFlight) {
  // A retried acquisition finds the original still waiting in its last
  // group: it submits nothing, keeps the original's locks and queue place,
  // and only the retry's continuation fires.
  ASSERT_TRUE(bootstrapped_);
  const Key& contended = keys_[7];  // In the last group.
  bool holder = false;
  service_.AcquireAll(1, {contended}, {LockMode::kWrite}, [&] { holder = true; });
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(holder);
  std::vector<Key> set = {keys_[0], keys_[2], keys_[4], contended};
  std::sort(set.begin(), set.end());
  const std::vector<LockMode> modes(set.size(), LockMode::kWrite);
  int original = 0;
  int retry = 0;
  service_.AcquireAll(2, set, modes, [&] { ++original; });
  sim_.RunFor(Millis(100));
  EXPECT_TRUE(State(0)->IsWriteHeldBy(keys_[0], 2));
  EXPECT_TRUE(State(2)->IsWriteHeldBy(keys_[4], 2));
  EXPECT_EQ(State(3)->WaitingCount(contended), 1u);
  const std::vector<uint64_t> before = SubmittedToEachGroup();
  service_.AcquireAll(2, set, modes, [&] { ++retry; });
  sim_.RunFor(Millis(100));
  EXPECT_EQ(SubmittedToEachGroup(), before);
  EXPECT_EQ(original + retry, 0);
  EXPECT_EQ(State(3)->WaitingCount(contended), 1u);
  service_.ReleaseAll(1);
  sim_.RunFor(Millis(100));
  EXPECT_EQ(original, 0);
  EXPECT_EQ(retry, 1);
  EXPECT_TRUE(State(3)->IsWriteHeldBy(contended, 2));
  service_.ReleaseAll(2);
  sim_.RunFor(Millis(100));
  EXPECT_TRUE(service_.idle());
  for (int g = 0; g < service_.shards(); ++g) {
    EXPECT_EQ(State(g)->active_lock_count(), 0u) << "group " << g;
  }
}

TEST_P(LockChainTest, StaleHandOffAfterReleaseAndReacquireIsIgnored) {
  // Execution 1 takes its first group, then releases and acquires again
  // before its hand-off event to the second group runs. That event belongs
  // to the abandoned acquisition: the second group gets one run from the new
  // one, not a second copy.
  ASSERT_TRUE(bootstrapped_);
  const std::vector<Key> set = {keys_[2], keys_[0]};  // Groups 1 and 0, sorted.
  ASSERT_TRUE(std::is_sorted(set.begin(), set.end()));
  const std::vector<LockMode> modes(set.size(), LockMode::kWrite);
  bool holder = false;
  service_.AcquireAll(9, {keys_[2]}, {LockMode::kWrite}, [&] { holder = true; });
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(holder);
  const uint64_t before = Submitted(1);
  int granted = 0;
  service_.AcquireAll(1, set, modes, [&] { ++granted; });
  service_.ReleaseAll(1);
  service_.AcquireAll(1, set, modes, [&] { ++granted; });
  sim_.RunFor(Millis(100));
  EXPECT_EQ(Submitted(1) - before, 1u);
  EXPECT_EQ(State(1)->WaitingCount(keys_[2]), 1u);
  EXPECT_EQ(granted, 0);
  service_.ReleaseAll(9);
  sim_.RunFor(Millis(100));
  EXPECT_EQ(granted, 1);
  EXPECT_TRUE(State(1)->IsWriteHeldBy(keys_[2], 1));
  service_.ReleaseAll(1);
  sim_.RunFor(Millis(100));
  EXPECT_TRUE(service_.idle());
}

TEST_P(LockChainTest, EmptyKeySetGrantsAfterReturningAndSubmitsNothing) {
  ASSERT_TRUE(bootstrapped_);
  const std::vector<uint64_t> before = SubmittedToEachGroup();
  bool returned = false;
  int granted = 0;
  bool granted_after_return = false;
  service_.AcquireAll(1, {}, {}, [&] {
    ++granted;
    granted_after_return = returned;
  });
  returned = true;
  EXPECT_EQ(granted, 0);
  sim_.RunFor(Millis(100));
  EXPECT_EQ(granted, 1);
  EXPECT_TRUE(granted_after_return);
  service_.ReleaseAll(1);
  sim_.RunFor(Millis(100));
  EXPECT_EQ(SubmittedToEachGroup(), before);
  EXPECT_TRUE(service_.idle());
}

TEST_P(LockChainTest, ReleaseOfAnUnknownExecutionSubmitsNothing) {
  // Nothing held, nothing in flight: no group is asked to release (a Raft
  // group would spend a commit on it).
  ASSERT_TRUE(bootstrapped_);
  const std::vector<uint64_t> before = SubmittedToEachGroup();
  service_.ReleaseAll(42);
  sim_.RunFor(Millis(100));
  EXPECT_EQ(SubmittedToEachGroup(), before);
  EXPECT_TRUE(service_.idle());
}

INSTANTIATE_TEST_SUITE_P(Kinds, LockChainTest, ::testing::Values(0, 3), KindName);

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
