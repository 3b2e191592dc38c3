// Tests for the Raft substrate: election, replication, commitment, failover,
// restart replay, and log-matching properties.

#include <gtest/gtest.h>

#include <map>

#include "src/common/stats.h"
#include "src/raft/cluster.h"

namespace radical {
namespace {

// Collects applied commands per node so tests can check state-machine
// equivalence.
struct Applied {
  std::map<NodeId, std::vector<std::string>> by_node;

  RaftCluster::ApplyFactory Factory() {
    return [this](NodeId id) -> RaftNode::ApplyFn {
      by_node[id].clear();  // Restart rebuilds the SM from scratch.
      return [this, id](LogIndex index, const std::string& command) {
        (void)index;
        by_node[id].push_back(command);
      };
    };
  }
};

TEST(RaftTest, ElectsExactlyOneLeader) {
  Simulator sim(7);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  int leaders = 0;
  for (NodeId id = 0; id < cluster.size(); ++id) {
    leaders += cluster.node(id)->is_leader() ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(RaftTest, FiveNodeClusterElects) {
  Simulator sim(11);
  Applied applied;
  RaftCluster cluster(&sim, 5, RaftOptions{}, applied.Factory());
  EXPECT_GE(cluster.StartAndElect(), 0);
}

TEST(RaftTest, CommitsAndAppliesOnAllNodes) {
  Simulator sim(13);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  LogIndex committed = 0;
  cluster.SubmitToLeader("cmd-1", [&](LogIndex index) { committed = index; });
  sim.RunFor(Seconds(1));
  EXPECT_EQ(committed, 1u);
  // Heartbeats propagate commit to followers.
  for (NodeId id = 0; id < cluster.size(); ++id) {
    EXPECT_EQ(applied.by_node[id], (std::vector<std::string>{"cmd-1"})) << "node " << id;
  }
}

TEST(RaftTest, CommitLatencyIsOneMeshRoundTripPlusFsync) {
  Simulator sim(17);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  sim.RunFor(Millis(50));  // Settle heartbeats.
  LatencySampler samples;
  for (int i = 0; i < 100; ++i) {
    const SimTime start = sim.Now();
    bool done = false;
    cluster.SubmitToLeader("op", [&](LogIndex) {
      samples.Add(sim.Now() - start);
      done = true;
    });
    sim.RunFor(Millis(20));
    ASSERT_TRUE(done);
  }
  // ~ one AZ round trip (1.6 ms) + fsync (0.4 ms) + processing: the §5.6
  // 2.3 ms/lock constant.
  EXPECT_GT(samples.MedianMs(), 1.5);
  EXPECT_LT(samples.MedianMs(), 3.5);
}

TEST(RaftTest, OrderIsConsistentAcrossNodes) {
  Simulator sim(19);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  for (int i = 0; i < 20; ++i) {
    cluster.SubmitToLeader("cmd-" + std::to_string(i), {});
  }
  sim.RunFor(Seconds(2));
  ASSERT_EQ(applied.by_node[0].size(), 20u);
  EXPECT_EQ(applied.by_node[0], applied.by_node[1]);
  EXPECT_EQ(applied.by_node[1], applied.by_node[2]);
  EXPECT_EQ(applied.by_node[0].front(), "cmd-0");
}

TEST(RaftTest, LeaderCrashTriggersReElectionAndProgress) {
  Simulator sim(23);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId first_leader = cluster.StartAndElect();
  ASSERT_GE(first_leader, 0);
  cluster.SubmitToLeader("before-crash", {});
  sim.RunFor(Millis(200));
  cluster.CrashNode(first_leader);
  sim.RunFor(Seconds(2));
  const NodeId second_leader = cluster.LeaderId();
  ASSERT_GE(second_leader, 0);
  EXPECT_NE(second_leader, first_leader);
  bool committed = false;
  cluster.SubmitToLeader("after-crash", [&](LogIndex index) { committed = index != 0; });
  sim.RunFor(Seconds(2));
  EXPECT_TRUE(committed);
  // Surviving nodes agree and retain the pre-crash entry.
  for (NodeId id = 0; id < 3; ++id) {
    if (id == first_leader) {
      continue;
    }
    ASSERT_EQ(applied.by_node[id].size(), 2u) << "node " << id;
    EXPECT_EQ(applied.by_node[id][0], "before-crash");
    EXPECT_EQ(applied.by_node[id][1], "after-crash");
  }
}

// The fault hotel_failover and the §5.6 leader-kill sweep inject: the leader
// crashes, a successor takes over, and the old leader restarts. Its election
// timer never fires while the successor's heartbeats arrive, so it rejoins as
// a follower without campaigning and the successor keeps its term.
TEST(RaftTest, RestartedLeaderRejoinsWithoutDeposingSuccessor) {
  Simulator sim(53);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId old_leader = cluster.StartAndElect();
  ASSERT_GE(old_leader, 0);
  const Term first_term = cluster.node(old_leader)->term();
  cluster.SubmitToLeader("before-crash", {});
  sim.RunFor(Millis(200));
  cluster.CrashNode(old_leader);
  sim.RunFor(Seconds(1));
  const NodeId successor = cluster.LeaderId();
  ASSERT_GE(successor, 0);
  ASSERT_NE(successor, old_leader);
  const Term successor_term = cluster.node(successor)->term();
  EXPECT_EQ(successor_term, first_term + 1);
  cluster.SubmitToLeader("after-crash", {});
  sim.RunFor(Millis(200));
  cluster.RestartNode(old_leader);
  cluster.SubmitToLeader("after-restart", {});
  sim.RunFor(Seconds(2));
  EXPECT_EQ(cluster.LeaderId(), successor);
  EXPECT_EQ(cluster.node(successor)->term(), successor_term);
  EXPECT_EQ(cluster.node(old_leader)->role(), RaftRole::kFollower);
  EXPECT_EQ(cluster.node(old_leader)->term(), successor_term);
  const std::vector<std::string> all = {"before-crash", "after-crash", "after-restart"};
  for (NodeId id = 0; id < cluster.size(); ++id) {
    EXPECT_EQ(applied.by_node[id], all) << "node " << id;
  }
}

TEST(RaftTest, RestartedNodeCatchesUpByReplay) {
  Simulator sim(29);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  const NodeId victim = (leader + 1) % 3;
  cluster.SubmitToLeader("one", {});
  sim.RunFor(Millis(300));
  cluster.CrashNode(victim);
  cluster.SubmitToLeader("two", {});
  sim.RunFor(Millis(300));
  cluster.RestartNode(victim);
  sim.RunFor(Seconds(2));
  EXPECT_EQ(applied.by_node[victim], (std::vector<std::string>{"one", "two"}));
}

TEST(RaftTest, MinorityPartitionCannotCommit) {
  Simulator sim(31);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  // Isolate the leader: it keeps thinking it leads for a while but cannot
  // commit anything new.
  cluster.mesh().Isolate(leader, true);
  bool committed = false;
  cluster.node(leader)->Propose("doomed", [&](LogIndex index) { committed = index != 0; });
  sim.RunFor(Seconds(1));
  EXPECT_FALSE(committed);
  // Majority side elects a fresh leader and makes progress.
  const NodeId new_leader = cluster.LeaderId();
  ASSERT_GE(new_leader, 0);
  EXPECT_NE(new_leader, leader);
  bool ok = false;
  cluster.node(new_leader)->Propose("lives", [&](LogIndex index) { ok = index != 0; });
  sim.RunFor(Seconds(1));
  EXPECT_TRUE(ok);
  // Heal: the old leader steps down and converges (the doomed entry is
  // overwritten by the new leader's log).
  cluster.mesh().Isolate(leader, false);
  sim.RunFor(Seconds(2));
  EXPECT_FALSE(cluster.node(leader)->is_leader());
  std::vector<std::string> expect{"lives"};
  EXPECT_EQ(applied.by_node[leader], expect);
}

TEST(RaftTest, ProposeOnFollowerFailsFast) {
  Simulator sim(37);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  const NodeId follower = (leader + 1) % 3;
  bool called = false;
  LogIndex result = 99;
  cluster.node(follower)->Propose("nope", [&](LogIndex index) {
    called = true;
    result = index;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(result, 0u);
}

TEST(RaftTest, LogMatchingAfterChaos) {
  Simulator sim(41);
  Applied applied;
  RaftCluster cluster(&sim, 5, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    cluster.SubmitToLeader("r" + std::to_string(round), {});
    if (round == 3) {
      cluster.mesh().set_drop_probability(0.2);
    }
    if (round == 7) {
      cluster.mesh().set_drop_probability(0.0);
    }
    sim.RunFor(Millis(200));
  }
  sim.RunFor(Seconds(3));
  // All alive nodes converge to the same applied prefix.
  const auto& reference = applied.by_node[0];
  EXPECT_GE(reference.size(), 1u);
  for (NodeId id = 1; id < 5; ++id) {
    const auto& other = applied.by_node[id];
    const size_t common = std::min(reference.size(), other.size());
    for (size_t i = 0; i < common; ++i) {
      EXPECT_EQ(reference[i], other[i]) << "divergence at index " << i << " on node " << id;
    }
  }
}

// Regression: a duplicated (retransmitted) vote reply must not count twice
// toward the majority. With the old scalar vote counter, three copies of one
// peer's grant elected a leader with only 2 of 5 distinct voters.
TEST(RaftTest, VoteReplyDuplicatesDoNotElect) {
  Simulator sim(43);
  Applied applied;
  RaftCluster cluster(&sim, 5, RaftOptions{}, applied.Factory());
  // Start only node 0: it times out and campaigns, but no real peer answers.
  cluster.node(0)->Start();
  while (cluster.node(0)->role() != RaftRole::kCandidate && sim.Step()) {
  }
  ASSERT_EQ(cluster.node(0)->role(), RaftRole::kCandidate);
  const Term term = cluster.node(0)->term();
  // Inject three copies of the same granted reply: self + one distinct peer
  // is 2 < 3 (the majority of 5), so node 0 must stay a candidate.
  for (int i = 0; i < 3; ++i) {
    RequestVoteReply reply;
    reply.term = term;
    reply.granted = true;
    reply.from = 1;
    cluster.node(0)->HandleVoteReply(reply);
  }
  EXPECT_FALSE(cluster.node(0)->is_leader());
  // A grant from a second distinct peer reaches the majority.
  RequestVoteReply reply;
  reply.term = term;
  reply.granted = true;
  reply.from = 2;
  cluster.node(0)->HandleVoteReply(reply);
  EXPECT_TRUE(cluster.node(0)->is_leader());
}

// Regression: catching up a far-behind follower must cost O(divergence
// terms) round trips, not O(log length). A follower that missed ~300
// commits rejoins under a freshly elected leader (whose next_index starts
// at its own log end); the conflict hint must jump next_index straight to
// the follower's log end instead of decrementing one entry per round trip
// (~300 round trips at ~2 ms each would blow the deadline below).
TEST(RaftTest, FastBackoffCatchesUpLongDivergenceQuickly) {
  Simulator sim(61);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  const NodeId laggard = (leader + 1) % 3;
  const NodeId survivor = (leader + 2) % 3;
  cluster.CrashNode(laggard);
  const int entries = 300;
  for (int i = 0; i < entries; ++i) {
    cluster.node(leader)->Propose("e" + std::to_string(i), {});
  }
  sim.RunFor(Seconds(2));
  ASSERT_EQ(applied.by_node[survivor].size(), static_cast<size_t>(entries));
  // Force a fresh election among {survivor, laggard}: the survivor wins (its
  // log is complete) with next_index[laggard] = 301.
  cluster.CrashNode(leader);
  cluster.RestartNode(laggard);
  sim.RunFor(Millis(600));
  EXPECT_EQ(cluster.LeaderId(), survivor);
  // 600 ms covers the election plus a handful of append rounds — enough with
  // the conflict hint, hopeless with one-entry-per-round-trip decrements.
  EXPECT_EQ(applied.by_node[laggard].size(), static_cast<size_t>(entries));
}

// --- Pipelined replication and waiting for a leader ---------------------------

// AppendEntries messages the group has sent so far, as the mesh fabric
// counts them.
uint64_t AppendsSent(Simulator& sim, RaftCluster& cluster) {
  return sim.metrics().CounterValue(cluster.mesh().fabric().metrics_prefix() +
                                    ".kind.raft_append.sent");
}

// Regression for the append storm: next_index used to move only when a reply
// arrived, so every proposal and heartbeat resent everything unacknowledged
// (about 45 appends per peer per commit here). Pipelined, each proposal
// ships its own entry once, plus a heartbeat per peer every 20 ms.
TEST(RaftTest, SteadyStateSendsAboutOneAppendPerPeerPerCommit) {
  Simulator sim(71);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  sim.RunFor(Millis(50));
  const uint64_t before = AppendsSent(sim, cluster);
  const int proposals = 200;
  int committed = 0;
  for (int i = 0; i < proposals; ++i) {
    sim.Schedule(Millis(i), [&, i] {
      cluster.SubmitToLeader("p" + std::to_string(i), [&](LogIndex index) {
        committed += index != 0 ? 1 : 0;
      });
    });
  }
  sim.RunFor(Millis(proposals + 10));
  ASSERT_EQ(committed, proposals);
  const double per_peer_per_commit =
      static_cast<double>(AppendsSent(sim, cluster) - before) / (proposals * 2);
  EXPECT_LE(per_peer_per_commit, 2.0);
}

// With next_index advanced on send, a lost append leaves a gap the follower
// detects on the next append; the rejection and its conflict hint resend
// from the gap, so every proposal still commits and the logs converge.
TEST(RaftTest, PipelinedReplicationRepairsLostAppends) {
  Simulator sim(73);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  net::DropRule lossy;
  lossy.kind = net::MessageKind::kRaftAppend;
  lossy.probability = 0.2;
  cluster.mesh().fabric().AddDropRule(lossy);
  const int proposals = 200;
  int committed = 0;
  for (int i = 0; i < proposals; ++i) {
    sim.Schedule(Millis(i), [&, i] {
      cluster.SubmitToLeader("p" + std::to_string(i), [&](LogIndex index) {
        committed += index != 0 ? 1 : 0;
      });
    });
  }
  sim.RunFor(Seconds(2));
  EXPECT_EQ(committed, proposals);
  EXPECT_GT(cluster.mesh().messages_dropped(), 0u);
  const NodeId leader = cluster.LeaderId();
  ASSERT_GE(leader, 0);
  for (NodeId id = 0; id < cluster.size(); ++id) {
    EXPECT_EQ(cluster.node(id)->log().last_index(), cluster.node(leader)->log().last_index())
        << "node " << id;
    EXPECT_EQ(applied.by_node[id].size(), static_cast<size_t>(proposals)) << "node " << id;
    EXPECT_EQ(applied.by_node[id], applied.by_node[leader]) << "node " << id;
  }
}

// Regression: a submission made while no node leads used to poll for a
// leader every election_timeout_min (100 ms), so it could commit up to
// 100 ms after the election. It now waits for the election and goes to the
// new leader at once: one commit round after BecomeLeader.
TEST(RaftTest, LeaderlessSubmissionCommitsRightAfterElection) {
  Simulator sim(79);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId old_leader = cluster.StartAndElect();
  ASSERT_GE(old_leader, 0);
  sim.RunFor(Millis(50));
  cluster.CrashNode(old_leader);
  SimTime committed_at = -1;
  cluster.SubmitToLeader("after-crash", [&](LogIndex index) {
    if (index != 0) {
      committed_at = sim.Now();
    }
  });
  EXPECT_EQ(cluster.waiting_submissions(), 1u);
  while (cluster.LeaderId() < 0 && sim.Step()) {
  }
  ASSERT_GE(cluster.LeaderId(), 0);
  const SimTime elected_at = sim.Now();
  sim.RunFor(Millis(200));
  ASSERT_GE(committed_at, elected_at);
  EXPECT_LE(committed_at - elected_at, Millis(5));
  EXPECT_EQ(cluster.waiting_submissions(), 0u);
}

// A submission that waits for a leader that never comes fails with done(0)
// exactly at its deadline, and the cluster keeps nothing of it.
TEST(RaftTest, LeaderlessSubmissionFailsAtItsDeadline) {
  Simulator sim(83);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  sim.RunFor(Millis(50));
  cluster.CrashNode(leader);
  cluster.CrashNode((leader + 1) % 3);
  const SimTime submitted_at = sim.Now();
  int calls = 0;
  SimTime failed_at = -1;
  LogIndex result = 99;
  cluster.SubmitToLeader(
      "no-quorum",
      [&](LogIndex index) {
        ++calls;
        result = index;
        failed_at = sim.Now();
      },
      Millis(300));
  sim.RunFor(Seconds(1));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(result, 0u);
  EXPECT_EQ(failed_at, submitted_at + Millis(300));
  EXPECT_EQ(cluster.waiting_submissions(), 0u);
}

// --- Snapshotting / log compaction -------------------------------------------------

// A snapshottable counter state machine for compaction tests.
struct Counters2 {
  std::map<NodeId, int64_t> value;
  RaftCluster::ApplyFactory Factory() {
    return [this](NodeId id) -> RaftNode::ApplyFn {
      value[id] = 0;
      return [this, id](LogIndex, const std::string& command) {
        value[id] += std::stoll(command);
      };
    };
  }
  void WireSnapshots(RaftCluster& cluster) {
    for (NodeId id = 0; id < cluster.size(); ++id) {
      cluster.node(id)->set_snapshot_hooks(
          [this, id] { return std::to_string(value[id]); },
          [this, id](const std::string& data) { value[id] = std::stoll(data); });
    }
  }
};

TEST(RaftSnapshotTest, CompactionShrinksTheLog) {
  Simulator sim(71);
  RaftOptions options;
  options.compaction_threshold = 10;
  Counters2 state;
  RaftCluster cluster(&sim, 3, options, state.Factory());
  state.WireSnapshots(cluster);
  ASSERT_GE(cluster.StartAndElect(), 0);
  for (int i = 0; i < 40; ++i) {
    cluster.SubmitToLeader("1", {});
    sim.RunFor(Millis(30));
  }
  sim.RunFor(Seconds(1));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  // 40 entries committed, but the in-memory log holds < threshold + batch.
  EXPECT_EQ(leader->log().last_index(), 40u);
  EXPECT_LT(leader->log().size(), 15u);
  EXPECT_GE(leader->log().snapshot_index(), 30u);
  // State machines all agree on the sum.
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(state.value[id], 40) << "node " << id;
  }
}

TEST(RaftSnapshotTest, RestartRestoresFromSnapshotPlusSuffix) {
  Simulator sim(73);
  RaftOptions options;
  options.compaction_threshold = 8;
  Counters2 state;
  RaftCluster cluster(&sim, 3, options, state.Factory());
  state.WireSnapshots(cluster);
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 25; ++i) {
    cluster.SubmitToLeader("2", {});
    sim.RunFor(Millis(30));
  }
  sim.RunFor(Seconds(1));
  const NodeId victim = (leader + 1) % 3;
  ASSERT_GT(cluster.node(victim)->log().snapshot_index(), 0u);  // Compacted.
  cluster.CrashNode(victim);
  sim.RunFor(Millis(100));
  cluster.RestartNode(victim);
  sim.RunFor(Seconds(2));
  // The restarted node rebuilt from its snapshot + replayed the suffix: the
  // full sum is back even though early entries are gone from its log.
  EXPECT_EQ(state.value[victim], 50);
}

TEST(RaftSnapshotTest, LaggardCatchesUpViaInstallSnapshot) {
  Simulator sim(79);
  RaftOptions options;
  options.compaction_threshold = 6;
  Counters2 state;
  RaftCluster cluster(&sim, 3, options, state.Factory());
  state.WireSnapshots(cluster);
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  const NodeId laggard = (leader + 1) % 3;
  // Partition the laggard, commit far past the compaction threshold, heal.
  cluster.mesh().Isolate(laggard, true);
  for (int i = 0; i < 30; ++i) {
    cluster.SubmitToLeader("3", {});
    sim.RunFor(Millis(30));
  }
  sim.RunFor(Millis(500));
  ASSERT_GT(cluster.node(leader)->log().snapshot_index(),
            cluster.node(laggard)->log().last_index());
  cluster.mesh().Isolate(laggard, false);
  sim.RunFor(Seconds(3));
  // The laggard cannot get the compacted entries; InstallSnapshot brings it
  // to the leader's state, then normal replication resumes.
  EXPECT_EQ(state.value[laggard], 90);
  EXPECT_GE(cluster.node(laggard)->log().snapshot_index(), 6u);
}

// --- RaftLog unit tests ---------------------------------------------------------

TEST(RaftLogTest, AppendAndTerms) {
  RaftLog log;
  EXPECT_EQ(log.last_index(), 0u);
  EXPECT_EQ(log.TermAt(0), 0u);
  log.Append({1, "a"});
  log.Append({2, "b"});
  EXPECT_EQ(log.last_index(), 2u);
  EXPECT_EQ(log.last_term(), 2u);
  EXPECT_EQ(log.TermAt(1), 1u);
  EXPECT_EQ(log.At(2).command, "b");
}

TEST(RaftLogTest, TryAppendConsistencyCheck) {
  RaftLog log;
  log.Append({1, "a"});
  EXPECT_FALSE(log.TryAppend(5, 1, {}));   // Gap.
  EXPECT_FALSE(log.TryAppend(1, 2, {}));   // Term mismatch.
  EXPECT_TRUE(log.TryAppend(1, 1, {{2, "b"}}));
  EXPECT_EQ(log.last_index(), 2u);
}

TEST(RaftLogTest, ConflictTruncatesSuffix) {
  RaftLog log;
  log.Append({1, "a"});
  log.Append({1, "b"});
  log.Append({1, "c"});
  // A new leader (term 2) overwrites from index 2.
  EXPECT_TRUE(log.TryAppend(1, 1, {{2, "B"}}));
  EXPECT_EQ(log.last_index(), 2u);
  EXPECT_EQ(log.At(2).command, "B");
  EXPECT_EQ(log.At(2).term, 2u);
}

TEST(RaftLogTest, DuplicateAppendIsIdempotent) {
  RaftLog log;
  log.Append({1, "a"});
  log.Append({1, "b"});
  EXPECT_TRUE(log.TryAppend(0, 0, {{1, "a"}, {1, "b"}}));
  EXPECT_EQ(log.last_index(), 2u);
}

TEST(RaftLogTest, CompactToKeepsSuffixAndBase) {
  RaftLog log;
  for (int i = 1; i <= 6; ++i) {
    log.Append({static_cast<Term>(i <= 3 ? 1 : 2), "c" + std::to_string(i)});
  }
  log.CompactTo(4);
  EXPECT_EQ(log.snapshot_index(), 4u);
  EXPECT_EQ(log.snapshot_term(), 2u);
  EXPECT_EQ(log.last_index(), 6u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_FALSE(log.HasEntry(4));
  EXPECT_TRUE(log.HasEntry(5));
  EXPECT_EQ(log.At(5).command, "c5");
  EXPECT_EQ(log.TermAt(4), 2u);   // Base term still known.
  EXPECT_EQ(log.TermAt(3), 0u);   // Compacted away.
}

TEST(RaftLogTest, TryAppendAcrossSnapshotBaseSkipsCoveredPrefix) {
  RaftLog log;
  for (int i = 1; i <= 5; ++i) {
    log.Append({1, "c" + std::to_string(i)});
  }
  log.CompactTo(4);
  // A leader replays from index 2: entries 3-4 are covered, 5 matches, 6 new.
  EXPECT_TRUE(log.TryAppend(2, 1, {{1, "c3"}, {1, "c4"}, {1, "c5"}, {1, "c6"}}));
  EXPECT_EQ(log.last_index(), 6u);
  EXPECT_EQ(log.At(6).command, "c6");
}

TEST(RaftLogTest, ResetToSnapshotDiscardsEverything) {
  RaftLog log;
  log.Append({1, "a"});
  log.Append({1, "b"});
  log.ResetToSnapshot(10, 3);
  EXPECT_EQ(log.last_index(), 10u);
  EXPECT_EQ(log.last_term(), 3u);
  EXPECT_EQ(log.size(), 0u);
  log.Append({4, "c"});
  EXPECT_EQ(log.last_index(), 11u);
  EXPECT_EQ(log.At(11).term, 4u);
}

TEST(RaftLogTest, EntriesAfterRespectsBatch) {
  RaftLog log;
  for (int i = 0; i < 10; ++i) {
    log.Append({1, std::to_string(i)});
  }
  EXPECT_EQ(log.EntriesAfter(0, 4).size(), 4u);
  EXPECT_EQ(log.EntriesAfter(8).size(), 2u);
  EXPECT_EQ(log.EntriesAfter(10).size(), 0u);
}

}  // namespace
}  // namespace radical
