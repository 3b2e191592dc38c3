#include "src/raft/node.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace radical {
namespace {

// Approximate wire sizes of the Raft RPCs: fixed header fields (terms,
// indices, ids) plus per-entry payload. Exact enough for the fabric's byte
// accounting; Raft traffic never crosses the WAN so it does not affect the
// §5.7 cost numbers.
constexpr size_t kVoteWireSize = 40;
constexpr size_t kVoteReplyWireSize = 32;
constexpr size_t kAppendReplyWireSize = 40;

size_t AppendWireSize(const AppendEntriesArgs& args) {
  size_t size = 56;
  for (const LogEntry& entry : args.entries) {
    size += 16 + entry.command.size();
  }
  return size;
}

size_t SnapshotWireSize(const InstallSnapshotArgs& args) { return 56 + args.data.size(); }

}  // namespace

const char* RaftRoleName(RaftRole role) {
  switch (role) {
    case RaftRole::kFollower:
      return "follower";
    case RaftRole::kCandidate:
      return "candidate";
    case RaftRole::kLeader:
      return "leader";
  }
  return "?";
}

RaftNode::RaftNode(NodeId id, int cluster_size, LocalMesh* mesh, RaftOptions options,
                   ApplyFn apply)
    : id_(id),
      cluster_size_(cluster_size),
      mesh_(mesh),
      options_(options),
      apply_(std::move(apply)),
      rng_(mesh->simulator()->rng().Fork()) {}

void RaftNode::Start() {
  alive_ = true;
  role_ = RaftRole::kFollower;
  ResetElectionTimer();
}

void RaftNode::Crash() {
  alive_ = false;
  CancelTimers();
  // Volatile state is gone; persistent (term, votedFor, log) stays.
  commit_index_ = 0;
  last_applied_ = 0;
  votes_granted_.clear();
  leader_hint_ = -1;
  proposal_busy_until_ = 0;
  next_index_.clear();
  match_index_.clear();
  FailPendingProposals();
}

void RaftNode::Restart() {
  assert(!alive_);
  // Rebuild the state machine: restore the persisted snapshot (if any), then
  // the apply loop replays the remaining log suffix as commit advances.
  if (!snapshot_data_.empty() && restore_) {
    restore_(snapshot_data_);
  }
  last_applied_ = log_.snapshot_index();
  commit_index_ = log_.snapshot_index();
  Start();
}

void RaftNode::CancelTimers() {
  Simulator* sim = mesh_->simulator();
  if (election_timer_ != kInvalidEventId) {
    sim->Cancel(election_timer_);
    election_timer_ = kInvalidEventId;
  }
  if (heartbeat_timer_ != kInvalidEventId) {
    sim->Cancel(heartbeat_timer_);
    heartbeat_timer_ = kInvalidEventId;
  }
}

void RaftNode::ResetElectionTimer() {
  Simulator* sim = mesh_->simulator();
  if (election_timer_ != kInvalidEventId) {
    sim->Cancel(election_timer_);
  }
  const SimDuration timeout = rng_.NextInRange(options_.election_timeout_min,
                                               options_.election_timeout_max);
  election_timer_ = sim->Schedule(timeout, [this] {
    election_timer_ = kInvalidEventId;
    if (alive_ && role_ != RaftRole::kLeader) {
      BecomeCandidate();
    }
  });
}

void RaftNode::BecomeFollower(Term term) {
  const bool was_leader = (role_ == RaftRole::kLeader);
  role_ = RaftRole::kFollower;
  votes_granted_.clear();
  if (term > current_term_) {
    current_term_ = term;
    voted_for_ = -1;
  }
  if (heartbeat_timer_ != kInvalidEventId) {
    mesh_->simulator()->Cancel(heartbeat_timer_);
    heartbeat_timer_ = kInvalidEventId;
  }
  if (was_leader) {
    FailPendingProposals();
  }
  ResetElectionTimer();
}

void RaftNode::BecomeCandidate() {
  role_ = RaftRole::kCandidate;
  ++current_term_;
  voted_for_ = id_;
  votes_granted_.clear();
  votes_granted_.insert(id_);  // Own vote.
  RLOG(kDebug) << "raft node " << id_ << " starts election, term " << current_term_;
  ResetElectionTimer();
  BroadcastVoteRequest(RequestVoteArgs{.term = current_term_,
                                       .candidate = id_,
                                       .last_log_index = log_.last_index(),
                                       .last_log_term = log_.last_term()});
}

void RaftNode::BroadcastVoteRequest(const RequestVoteArgs& args) {
  for (NodeId peer = 0; peer < mesh_->node_count(); ++peer) {
    if (peer == id_) {
      continue;
    }
    mesh_->endpoint(id_).Send(mesh_->endpoint(peer), net::MessageKind::kRaftVote,
                              kVoteWireSize, [this, peer, args] {
      RaftNode* node = peers_(peer);
      if (node == nullptr || !node->alive_) {
        return;
      }
      const RequestVoteReply reply = node->HandleRequestVote(args);
      mesh_->endpoint(peer).Send(mesh_->endpoint(id_), net::MessageKind::kRaftVoteReply,
                                 kVoteReplyWireSize, [this, reply] {
        if (alive_) {
          HandleVoteReply(reply);
        }
      });
    });
  }
}

void RaftNode::BecomeLeader() {
  role_ = RaftRole::kLeader;
  leader_hint_ = id_;
  RLOG(kInfo) << "raft node " << id_ << " becomes leader, term " << current_term_;
  next_index_.assign(static_cast<size_t>(mesh_->node_count()), log_.last_index() + 1);
  match_index_.assign(static_cast<size_t>(mesh_->node_count()), 0);
  match_index_[static_cast<size_t>(id_)] = log_.last_index();
  if (election_timer_ != kInvalidEventId) {
    mesh_->simulator()->Cancel(election_timer_);
    election_timer_ = kInvalidEventId;
  }
  SendHeartbeats();
  if (on_leader_) {
    on_leader_();
  }
}

void RaftNode::SendHeartbeats() {
  if (!alive_ || role_ != RaftRole::kLeader) {
    return;
  }
  for (NodeId peer = 0; peer < mesh_->node_count(); ++peer) {
    if (peer != id_) {
      ReplicateTo(peer);
    }
  }
  heartbeat_timer_ = mesh_->simulator()->Schedule(options_.heartbeat_interval, [this] {
    heartbeat_timer_ = kInvalidEventId;
    SendHeartbeats();
  });
}

void RaftNode::ReplicateTo(NodeId peer) {
  if (!alive_ || role_ != RaftRole::kLeader) {
    return;
  }
  const auto p = static_cast<size_t>(peer);
  if (next_index_[p] <= log_.snapshot_index()) {
    // The entries this follower needs were compacted away: ship the whole
    // state-machine snapshot instead.
    SendSnapshotTo(peer);
    return;
  }
  const LogIndex prev = next_index_[p] - 1;
  AppendEntriesArgs args{.term = current_term_,
                         .leader = id_,
                         .prev_index = prev,
                         .prev_term = log_.TermAt(prev),
                         .entries = log_.EntriesAfter(prev, options_.max_entries_per_append),
                         .leader_commit = commit_index_};
  // Pipelined replication (Raft dissertation §10.2.1): the next append
  // starts after these entries without waiting for this one's reply. A lost
  // append fails the next one's consistency check, and the rejection moves
  // next_index back.
  next_index_[p] = prev + args.entries.size() + 1;
  const size_t size = AppendWireSize(args);
  mesh_->endpoint(id_).Send(mesh_->endpoint(peer), net::MessageKind::kRaftAppend, size,
                            [this, peer, append = std::move(args)]() mutable {
    RaftNode* node = peers_(peer);
    if (node != nullptr && node->alive_) {
      node->ReceiveAppend(std::move(append));
    }
  });
}

void RaftNode::ReceiveAppend(AppendEntriesArgs args) {
  // The follower fsyncs new entries to its WAL before acknowledging.
  const SimDuration work =
      options_.process_delay + (args.entries.empty() ? 0 : options_.fsync_delay);
  mesh_->simulator()->ScheduleAt(InboxSlot(work), [this, append = std::move(args)] {
    if (alive_) {
      ReplyTo(append.leader, HandleAppendEntries(append));
    }
  });
}

void RaftNode::SendSnapshotTo(NodeId peer) {
  InstallSnapshotArgs args{.term = current_term_,
                           .leader = id_,
                           .last_included_index = log_.snapshot_index(),
                           .last_included_term = log_.snapshot_term(),
                           .data = snapshot_data_};
  // Pipelined like an append: a lost snapshot is re-sent when the next
  // append's rejection moves next_index back below the snapshot.
  next_index_[static_cast<size_t>(peer)] = args.last_included_index + 1;
  const size_t size = SnapshotWireSize(args);
  mesh_->endpoint(id_).Send(mesh_->endpoint(peer), net::MessageKind::kRaftSnapshot, size,
                            [this, peer, snapshot = std::move(args)]() mutable {
    RaftNode* node = peers_(peer);
    if (node != nullptr && node->alive_) {
      node->ReceiveSnapshot(std::move(snapshot));
    }
  });
}

void RaftNode::ReceiveSnapshot(InstallSnapshotArgs args) {
  // Installing a snapshot is a disk write on the follower.
  const SimDuration work = options_.process_delay + options_.fsync_delay;
  mesh_->simulator()->ScheduleAt(InboxSlot(work), [this, snapshot = std::move(args)] {
    if (alive_) {
      ReplyTo(snapshot.leader, HandleInstallSnapshot(snapshot));
    }
  });
}

SimTime RaftNode::InboxSlot(SimDuration work) {
  // A follower handles its leader's appends in arrival order (links are
  // FIFO). Without this, a heartbeat, which skips the fsync, would overtake
  // an append still waiting on its fsync, fail the consistency check and
  // force a resend.
  inbox_free_at_ = std::max(mesh_->simulator()->Now() + work, inbox_free_at_);
  return inbox_free_at_;
}

void RaftNode::ReplyTo(NodeId leader, const AppendEntriesReply& reply) {
  mesh_->endpoint(id_).Send(mesh_->endpoint(leader), net::MessageKind::kRaftAppendReply,
                            kAppendReplyWireSize, [this, leader, reply] {
    RaftNode* node = peers_(leader);
    if (node != nullptr && node->alive_) {
      node->HandleAppendReply(reply);
    }
  });
}

AppendEntriesReply RaftNode::HandleInstallSnapshot(const InstallSnapshotArgs& args) {
  AppendEntriesReply reply{.term = current_term_, .success = false, .match_index = 0,
                           .from = id_};
  if (args.term < current_term_) {
    return reply;
  }
  if (args.term > current_term_ || role_ != RaftRole::kFollower) {
    BecomeFollower(args.term);
  } else {
    ResetElectionTimer();
  }
  leader_hint_ = args.leader;
  reply.term = current_term_;
  if (args.last_included_index <= log_.snapshot_index()) {
    // Stale snapshot; we already have at least this much.
    reply.success = true;
    reply.match_index = log_.snapshot_index();
    return reply;
  }
  // If our log already contains the snapshot's last entry with the right
  // term, keep the suffix (Raft §7); otherwise discard everything.
  if (log_.HasEntry(args.last_included_index) &&
      log_.TermAt(args.last_included_index) == args.last_included_term) {
    log_.CompactTo(args.last_included_index);
  } else {
    log_.ResetToSnapshot(args.last_included_index, args.last_included_term);
  }
  snapshot_data_ = args.data;
  if (restore_) {
    restore_(args.data);
  }
  last_applied_ = args.last_included_index;
  commit_index_ = std::max(commit_index_, args.last_included_index);
  reply.success = true;
  reply.match_index = args.last_included_index;
  return reply;
}

void RaftNode::MaybeCompact() {
  if (!snapshot_ || last_applied_ - log_.snapshot_index() < options_.compaction_threshold) {
    return;
  }
  snapshot_data_ = snapshot_();
  log_.CompactTo(last_applied_);
}

RequestVoteReply RaftNode::HandleRequestVote(const RequestVoteArgs& args) {
  RequestVoteReply reply{.term = current_term_, .granted = false, .from = id_};
  if (args.term < current_term_) {
    return reply;
  }
  if (args.term > current_term_) {
    BecomeFollower(args.term);
  }
  reply.term = current_term_;
  const bool log_ok = args.last_log_term > log_.last_term() ||
                      (args.last_log_term == log_.last_term() &&
                       args.last_log_index >= log_.last_index());
  if ((voted_for_ == -1 || voted_for_ == args.candidate) && log_ok) {
    voted_for_ = args.candidate;
    reply.granted = true;
    ResetElectionTimer();
  }
  return reply;
}

void RaftNode::HandleVoteReply(const RequestVoteReply& reply) {
  if (reply.term > current_term_) {
    BecomeFollower(reply.term);
    return;
  }
  if (role_ != RaftRole::kCandidate || reply.term < current_term_ || !reply.granted) {
    return;
  }
  // Count each voter once: a duplicated or retried granted reply from the
  // same peer must not be able to fake a majority.
  votes_granted_.insert(reply.from);
  if (static_cast<int>(votes_granted_.size()) >= majority()) {
    BecomeLeader();
  }
}

AppendEntriesReply RaftNode::HandleAppendEntries(const AppendEntriesArgs& args) {
  AppendEntriesReply reply{.term = current_term_, .success = false, .match_index = 0,
                           .from = id_};
  if (args.term < current_term_) {
    return reply;
  }
  // Valid leader for this term (or newer): follow it.
  if (args.term > current_term_ || role_ != RaftRole::kFollower) {
    BecomeFollower(args.term);
  } else {
    ResetElectionTimer();
  }
  leader_hint_ = args.leader;
  reply.term = current_term_;
  if (!log_.TryAppend(args.prev_index, args.prev_term, args.entries)) {
    // Fill the fast-backoff hint: where our log actually diverges, so the
    // leader can jump next_index over a whole conflicting term at once.
    if (args.prev_index > log_.last_index()) {
      reply.conflict_term = 0;
      reply.conflict_index = log_.last_index() + 1;
    } else {
      const Term conflicting = log_.TermAt(args.prev_index);
      if (conflicting == 0) {
        // prev_index sits below our snapshot base with a mismatching term
        // claim; everything we can say is where retained entries start.
        reply.conflict_term = 0;
        reply.conflict_index = log_.snapshot_index() + 1;
      } else {
        reply.conflict_term = conflicting;
        reply.conflict_index = log_.FirstIndexOfTerm(args.prev_index);
      }
    }
    return reply;
  }
  reply.success = true;
  reply.match_index = args.prev_index + args.entries.size();
  if (args.leader_commit > commit_index_) {
    commit_index_ = std::min(args.leader_commit, log_.last_index());
    ApplyCommitted();
  }
  return reply;
}

void RaftNode::HandleAppendReply(const AppendEntriesReply& reply) {
  if (reply.term > current_term_) {
    BecomeFollower(reply.term);
    return;
  }
  if (role_ != RaftRole::kLeader || reply.term < current_term_) {
    return;
  }
  const auto peer = static_cast<size_t>(reply.from);
  if (reply.success) {
    // Replies to pipelined appends can arrive after later appends went out:
    // a success never moves next_index backwards.
    match_index_[peer] = std::max(match_index_[peer], reply.match_index);
    next_index_[peer] = std::max(next_index_[peer], match_index_[peer] + 1);
    AdvanceCommit();
    // More to ship (an append carries at most max_entries_per_append)? Keep
    // the pipe full without waiting for the next beat.
    if (next_index_[peer] <= log_.last_index()) {
      ReplicateTo(reply.from);
    }
  } else {
    // Consistency check failed: back up and retry. With a conflict hint,
    // jump straight past the follower's divergent term — if we hold entries
    // of conflict_term, resume after our last one; otherwise start at the
    // follower's first index of that term. Without a hint, the classic
    // one-entry decrement. Never below match_index + 1: those entries are
    // known to be on the follower.
    const LogIndex old_next = next_index_[peer];
    LogIndex next = old_next > 1 ? old_next - 1 : 1;
    if (reply.conflict_index > 0) {
      LogIndex hint = reply.conflict_index;
      if (reply.conflict_term != 0) {
        const LogIndex ours = log_.LastIndexOfTerm(reply.conflict_term, old_next - 1);
        if (ours > 0) {
          hint = ours + 1;
        }
      }
      // Guarantee progress: never move forward past the classic backoff.
      next = std::max<LogIndex>(1, std::min(hint, next));
    }
    next_index_[peer] = std::max(next, match_index_[peer] + 1);
    ReplicateTo(reply.from);
  }
}

void RaftNode::AdvanceCommit() {
  // Largest N with a majority of matchIndex >= N and log[N].term == current.
  // Groups have a handful of nodes, so count per candidate instead of
  // copying and sorting the match indices.
  auto match = [this](size_t i) {
    return i == static_cast<size_t>(id_) ? log_.last_index() : match_index_[i];
  };
  LogIndex candidate = 0;
  for (size_t i = 0; i < match_index_.size(); ++i) {
    int replicated = 0;
    for (size_t j = 0; j < match_index_.size(); ++j) {
      replicated += match(j) >= match(i) ? 1 : 0;
    }
    if (replicated >= majority()) {
      candidate = std::max(candidate, match(i));
    }
  }
  if (candidate > commit_index_ && log_.TermAt(candidate) == current_term_) {
    commit_index_ = candidate;
    ApplyCommitted();
  }
}

void RaftNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    if (apply_) {
      apply_(last_applied_, log_.At(last_applied_).command);
    }
    const auto it = pending_proposals_.find(last_applied_);
    if (it != pending_proposals_.end()) {
      ProposeCallback cb = std::move(it->second);
      pending_proposals_.erase(it);
      cb(last_applied_);
    }
  }
  MaybeCompact();
}

void RaftNode::Propose(std::string command, ProposeCallback done) {
  if (!alive_ || role_ != RaftRole::kLeader) {
    // Not leading: clients retry elsewhere.
    if (done) {
      done(0);
    }
    return;
  }
  if (options_.proposal_capacity_rps > 0) {
    // The leader appends at a finite rate: this proposal queues behind the
    // ones already occupying it (busy-until, like the LVI server's capacity
    // model), then re-checks leadership when its turn comes.
    Simulator* sim = mesh_->simulator();
    const SimDuration service = std::max<SimDuration>(
        1, Seconds(1) / static_cast<SimDuration>(options_.proposal_capacity_rps));
    const SimTime start = std::max(sim->Now(), proposal_busy_until_);
    proposal_busy_until_ = start + service;
    sim->Schedule(proposal_busy_until_ - sim->Now(),
                  [this, command = std::move(command), done = std::move(done)]() mutable {
                    ProposeNow(std::move(command), std::move(done));
                  });
    return;
  }
  ProposeNow(std::move(command), std::move(done));
}

void RaftNode::ProposeNow(std::string command, ProposeCallback done) {
  if (!alive_ || role_ != RaftRole::kLeader) {
    if (done) {
      done(0);
    }
    return;
  }
  const LogIndex index = log_.Append(LogEntry{current_term_, std::move(command)});
  match_index_[static_cast<size_t>(id_)] = index;
  if (done) {
    pending_proposals_[index] = std::move(done);
  }
  // Replicate eagerly rather than waiting for the heartbeat.
  for (NodeId peer = 0; peer < mesh_->node_count(); ++peer) {
    if (peer != id_) {
      ReplicateTo(peer);
    }
  }
  // Single-node cluster: commit immediately.
  AdvanceCommit();
}

void RaftNode::FailPendingProposals() {
  auto pending = std::move(pending_proposals_);
  pending_proposals_.clear();
  for (auto& [index, cb] : pending) {
    (void)index;
    if (cb) {
      cb(0);
    }
  }
}

}  // namespace radical
