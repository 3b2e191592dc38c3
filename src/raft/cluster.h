// RaftCluster: construction and client-side helpers for a Raft group.
//
// Owns the nodes and the AZ mesh, wires peer resolution, and provides the
// client API the replicated lock service uses: SubmitToLeader proposes to
// whoever currently leads. A submission made while no node leads (or whose
// leader lost its term before committing it) waits in one FIFO and goes to
// the next leader the moment it is elected; no timer polls for one.

#ifndef RADICAL_SRC_RAFT_CLUSTER_H_
#define RADICAL_SRC_RAFT_CLUSTER_H_

#include <functional>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "src/raft/node.h"

namespace radical {

class RaftCluster {
 public:
  // Creates an SM instance's apply callback for a node (called again after a
  // restart so the state machine can be rebuilt by replay).
  using ApplyFactory = std::function<RaftNode::ApplyFn(NodeId)>;

  // `metric_scope` prefixes the per-node health gauges (made unique via
  // UniqueScopeName); multi-group deployments pass "raft.shard<i>" so each
  // lock shard's group is separately observable.
  RaftCluster(Simulator* sim, int node_count, RaftOptions options, ApplyFactory apply_factory,
              LocalMeshOptions mesh_options = {}, const std::string& metric_scope = "raft");

  // Starts all nodes and runs the simulator until a leader emerges.
  // Returns the leader id, or -1 if none emerged within the deadline.
  NodeId StartAndElect(SimDuration deadline = Seconds(5));

  // Currently known leader (-1 if none alive claims leadership).
  NodeId LeaderId() const;
  RaftNode* leader();
  RaftNode* node(NodeId id) { return nodes_[static_cast<size_t>(id)].get(); }
  int size() const { return static_cast<int>(nodes_.size()); }
  LocalMesh& mesh() { return *mesh_; }
  Simulator* simulator() { return sim_; }
  // The unique metric scope reserved for this group's instruments.
  const std::string& metric_scope() const { return metric_scope_; }

  // Proposes `command` to whichever node leads, waiting for the next
  // election when none does, until it commits or `deadline` virtual time
  // passes. `done(index)` fires on commit; `done(0)` at the deadline.
  void SubmitToLeader(std::string command, RaftNode::ProposeCallback done,
                      SimDuration deadline = Seconds(5));

  // Submissions waiting for a leader.
  size_t waiting_submissions() const { return waiting_.size(); }

  // Fault injection.
  void CrashNode(NodeId id);
  void RestartNode(NodeId id);

 private:
  // A submission made while no node leads.
  struct Waiting {
    std::string command;
    RaftNode::ProposeCallback done;
    SimTime deadline_at = 0;
    EventId expiry = kInvalidEventId;  // Fails it with done(0) at deadline_at.
  };

  void TrySubmit(std::string command, RaftNode::ProposeCallback done, SimTime deadline_at);
  // A node won an election: hand it the waiting submissions, in FIFO order,
  // from a zero-delay event.
  void OnLeaderElected();

  Simulator* sim_;
  ApplyFactory apply_factory_;
  std::unique_ptr<LocalMesh> mesh_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  std::string metric_scope_;
  std::list<Waiting> waiting_;
};

}  // namespace radical

#endif  // RADICAL_SRC_RAFT_CLUSTER_H_
