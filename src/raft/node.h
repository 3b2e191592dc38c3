// RaftNode: a single participant in the Raft consensus protocol.
//
// Implements leader election, log replication, and commitment as in Ongaro &
// Ousterhout's paper (the §5.6 etcd cluster stores Radical's locks behind
// exactly this protocol). The implementation follows the paper's rules:
// randomized election timeouts, the AppendEntries consistency check with
// conflict rollback, commit only for current-term entries via majority
// match, and persistent (term, votedFor, log) state that survives crashes.
//
// Replication is pipelined (Raft dissertation §10.2.1, etcd-raft's replicate
// state): the leader advances a follower's next_index past the entries it
// sends without waiting for the reply, so each proposal ships only its own
// entry and a heartbeat to an up-to-date follower is an empty append. A lost
// append is repaired by the next append's consistency check and the conflict
// hint. Followers handle appends in arrival order.
//
// Latency model: every RPC hop pays the mesh's AZ-to-AZ delay; followers
// fsync appended entries to their WAL before acknowledging (etcd behaviour),
// so one commit costs roughly one AZ round trip plus an fsync — which is
// what makes a replicated lock acquisition cost ~2.3 ms (§5.6).

#ifndef RADICAL_SRC_RAFT_NODE_H_
#define RADICAL_SRC_RAFT_NODE_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/raft/log.h"
#include "src/raft/transport.h"

namespace radical {

enum class RaftRole { kFollower, kCandidate, kLeader };

const char* RaftRoleName(RaftRole role);

struct RaftOptions {
  SimDuration heartbeat_interval = Millis(20);
  SimDuration election_timeout_min = Millis(100);
  SimDuration election_timeout_max = Millis(200);
  // Follower WAL fsync before acknowledging an append (etcd behaviour).
  SimDuration fsync_delay = Micros(400);
  // Per-RPC handler processing time.
  SimDuration process_delay = Micros(100);
  size_t max_entries_per_append = 64;
  // Log compaction: once this many applied entries sit in the log, snapshot
  // the state machine and discard them, so the in-memory log stays bounded
  // on long runs. Needs snapshot hooks (a node without them keeps its log).
  // Followers that fall behind the compaction point catch up via
  // InstallSnapshot.
  size_t compaction_threshold = 1024;
  // Models the leader's finite proposal-processing rate: each Propose
  // occupies the leader for 1/rate seconds before it is appended, queueing
  // behind earlier proposals (same busy-until model as the LVI server's
  // serving_capacity_rps). 0 disables (proposals append immediately) — the
  // default, which keeps the paper's latency model untouched.
  uint64_t proposal_capacity_rps = 0;
};

struct RequestVoteArgs {
  Term term = 0;
  NodeId candidate = -1;
  LogIndex last_log_index = 0;
  Term last_log_term = 0;
};

struct RequestVoteReply {
  Term term = 0;
  bool granted = false;
  NodeId from = -1;
};

struct AppendEntriesArgs {
  Term term = 0;
  NodeId leader = -1;
  LogIndex prev_index = 0;
  Term prev_term = 0;
  std::vector<LogEntry> entries;
  LogIndex leader_commit = 0;
};

struct AppendEntriesReply {
  Term term = 0;
  bool success = false;
  LogIndex match_index = 0;
  NodeId from = -1;
  // Fast-backoff hint on a failed consistency check (the optimization Raft
  // §5.3 sketches): the term of the follower's conflicting entry and the
  // first index it holds for that term (or, past its log end, last_index+1
  // with term 0). Lets the leader skip a whole divergent term per round trip
  // instead of decrementing next_index one entry at a time. 0 = no hint.
  Term conflict_term = 0;
  LogIndex conflict_index = 0;
};

struct InstallSnapshotArgs {
  Term term = 0;
  NodeId leader = -1;
  LogIndex last_included_index = 0;
  Term last_included_term = 0;
  std::string data;  // Serialized state machine.
};

class RaftNode {
 public:
  // Applies a committed command to the node's state machine.
  using ApplyFn = std::function<void(LogIndex index, const std::string& command)>;
  // Fired at the proposing leader when the entry commits (index) or when the
  // proposal is abandoned (0: not leader, or leadership lost).
  using ProposeCallback = std::function<void(LogIndex)>;

  RaftNode(NodeId id, int cluster_size, LocalMesh* mesh, RaftOptions options, ApplyFn apply);

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  // Wires the peer lookup (set once by RaftCluster before Start).
  using PeerFn = std::function<RaftNode*(NodeId)>;
  void SetPeerResolver(PeerFn peers) { peers_ = std::move(peers); }

  // Called each time this node wins an election (set once by RaftCluster,
  // which then hands the new leader the submissions that waited for one).
  void SetLeaderListener(std::function<void()> on_leader) { on_leader_ = std::move(on_leader); }

  // Joins the cluster: arms the election timer.
  void Start();

  // Proposes a command. Must be called on the leader; otherwise `done(0)`
  // fires immediately (clients retry against the current leader).
  void Propose(std::string command, ProposeCallback done);

  // Crash-stop: loses volatile state and stops handling messages. Persistent
  // state (term, votedFor, log) survives.
  void Crash();

  // Rejoins after a crash: restores the latest persisted snapshot (if any)
  // and replays the remaining log suffix via the `apply` callback installed
  // by `set_apply` (or the constructor's) as the commit index re-advances.
  void Restart();

  // Replaces the apply callback (used on restart to rebuild a fresh state
  // machine before replay).
  void set_apply(ApplyFn apply) { apply_ = std::move(apply); }

  // Snapshot hooks: serialize the state machine / rebuild it from a
  // serialization. Without them the node never compacts its log. The hooks may
  // capture state that outlives restarts (they are kept across Crash).
  using SnapshotFn = std::function<std::string()>;
  using RestoreFn = std::function<void(const std::string&)>;
  void set_snapshot_hooks(SnapshotFn snapshot, RestoreFn restore) {
    snapshot_ = std::move(snapshot);
    restore_ = std::move(restore);
  }

  NodeId id() const { return id_; }
  RaftRole role() const { return role_; }
  bool is_leader() const { return alive_ && role_ == RaftRole::kLeader; }
  bool alive() const { return alive_; }
  Term term() const { return current_term_; }
  LogIndex commit_index() const { return commit_index_; }
  LogIndex last_applied() const { return last_applied_; }
  const RaftLog& log() const { return log_; }

  // --- RPC handlers (invoked by peers through the mesh) ---------------------
  RequestVoteReply HandleRequestVote(const RequestVoteArgs& args);
  AppendEntriesReply HandleAppendEntries(const AppendEntriesArgs& args);
  AppendEntriesReply HandleInstallSnapshot(const InstallSnapshotArgs& args);
  void HandleVoteReply(const RequestVoteReply& reply);
  void HandleAppendReply(const AppendEntriesReply& reply);

 private:
  void BecomeFollower(Term term);
  void BecomeCandidate();
  void BroadcastVoteRequest(const RequestVoteArgs& args);
  void BecomeLeader();
  void ResetElectionTimer();
  void CancelTimers();
  void SendHeartbeats();
  void ReplicateTo(NodeId peer);
  void SendSnapshotTo(NodeId peer);
  // Follower side of an append or snapshot: handled in arrival order, then
  // answered to the leader.
  void ReceiveAppend(AppendEntriesArgs args);
  void ReceiveSnapshot(InstallSnapshotArgs args);
  SimTime InboxSlot(SimDuration work);
  void ReplyTo(NodeId leader, const AppendEntriesReply& reply);
  void MaybeCompact();
  void AdvanceCommit();
  void ApplyCommitted();
  void FailPendingProposals();
  void ProposeNow(std::string command, ProposeCallback done);
  int majority() const { return cluster_size_ / 2 + 1; }

  const NodeId id_;
  const int cluster_size_;
  LocalMesh* mesh_;
  RaftOptions options_;
  ApplyFn apply_;
  SnapshotFn snapshot_;
  RestoreFn restore_;
  PeerFn peers_;
  std::function<void()> on_leader_;
  Rng rng_;

  // Persistent state (survives Crash/Restart).
  Term current_term_ = 0;
  NodeId voted_for_ = -1;
  RaftLog log_;
  std::string snapshot_data_;  // Latest state-machine snapshot (on disk).

  // Volatile state.
  bool alive_ = false;
  RaftRole role_ = RaftRole::kFollower;
  LogIndex commit_index_ = 0;
  LogIndex last_applied_ = 0;
  NodeId leader_hint_ = -1;
  // Granted voters this election, deduplicated per peer: a retried or
  // duplicated reply must not count twice toward the majority.
  std::set<NodeId> votes_granted_;
  // Proposal-capacity model: the leader is busy appending until this time.
  SimTime proposal_busy_until_ = 0;
  // When the follower finishes handling the last append or snapshot that
  // arrived (they are handled one at a time, in arrival order).
  SimTime inbox_free_at_ = 0;
  // Leader: per follower, the next entry to send (advanced when sent) and
  // the highest entry known to be on it (advanced by success replies).
  std::vector<LogIndex> next_index_;
  std::vector<LogIndex> match_index_;
  std::map<LogIndex, ProposeCallback> pending_proposals_;
  EventId election_timer_ = kInvalidEventId;
  EventId heartbeat_timer_ = kInvalidEventId;
};

}  // namespace radical

#endif  // RADICAL_SRC_RAFT_NODE_H_
