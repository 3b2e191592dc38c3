#include "src/raft/cluster.h"

#include <string>

#include "src/obs/metrics.h"

namespace radical {

RaftCluster::RaftCluster(Simulator* sim, int node_count, RaftOptions options,
                         ApplyFactory apply_factory, LocalMeshOptions mesh_options,
                         const std::string& metric_scope)
    : sim_(sim), apply_factory_(std::move(apply_factory)) {
  mesh_ = std::make_unique<LocalMesh>(sim, node_count, mesh_options);
  for (NodeId id = 0; id < node_count; ++id) {
    RaftNode::ApplyFn apply = apply_factory_ ? apply_factory_(id) : RaftNode::ApplyFn{};
    nodes_.push_back(
        std::make_unique<RaftNode>(id, node_count, mesh_.get(), options, std::move(apply)));
  }
  for (auto& node : nodes_) {
    node->SetPeerResolver([this](NodeId id) { return nodes_[static_cast<size_t>(id)].get(); });
    node->SetLeaderListener([this] { OnLeaderElected(); });
  }
  // Per-node health gauges, read off the node at snapshot time.
  obs::MetricsRegistry& reg = sim->metrics();
  metric_scope_ = reg.UniqueScopeName(metric_scope);
  for (NodeId id = 0; id < node_count; ++id) {
    const RaftNode* n = nodes_[static_cast<size_t>(id)].get();
    const std::string base = metric_scope_ + ".node" + std::to_string(id);
    reg.AddCallbackGauge(base + ".term", [n] { return static_cast<int64_t>(n->term()); });
    reg.AddCallbackGauge(base + ".commit_index",
                         [n] { return static_cast<int64_t>(n->commit_index()); });
    reg.AddCallbackGauge(base + ".is_leader", [n] { return n->is_leader() ? 1 : 0; });
    reg.AddCallbackGauge(base + ".alive", [n] { return n->alive() ? 1 : 0; });
    reg.AddCallbackGauge(base + ".log_entries", [n] {
      return static_cast<int64_t>(n->log().last_index() - n->log().snapshot_index());
    });
  }
}

NodeId RaftCluster::StartAndElect(SimDuration deadline) {
  for (auto& node : nodes_) {
    node->Start();
  }
  const SimTime limit = sim_->Now() + deadline;
  while (sim_->Now() < limit) {
    const NodeId leader_id = LeaderId();
    if (leader_id >= 0) {
      return leader_id;
    }
    if (!sim_->Step()) {
      break;
    }
  }
  return LeaderId();
}

NodeId RaftCluster::LeaderId() const {
  // Highest term wins if multiple claim leadership transiently.
  NodeId best = -1;
  Term best_term = 0;
  for (const auto& node : nodes_) {
    if (node->is_leader() && node->term() >= best_term) {
      best = node->id();
      best_term = node->term();
    }
  }
  return best;
}

RaftNode* RaftCluster::leader() {
  const NodeId id = LeaderId();
  return id < 0 ? nullptr : nodes_[static_cast<size_t>(id)].get();
}

void RaftCluster::SubmitToLeader(std::string command, RaftNode::ProposeCallback done,
                                 SimDuration deadline) {
  TrySubmit(std::move(command), std::move(done), sim_->Now() + deadline);
}

void RaftCluster::TrySubmit(std::string command, RaftNode::ProposeCallback done,
                            SimTime deadline_at) {
  if (sim_->Now() >= deadline_at) {
    if (done) {
      done(0);
    }
    return;
  }
  RaftNode* lead = leader();
  if (lead == nullptr || !waiting_.empty()) {
    // No leader: wait for the next election (OnLeaderElected), behind any
    // submission already waiting, or fail at the deadline.
    const auto it = waiting_.insert(waiting_.end(),
                                    Waiting{std::move(command), std::move(done), deadline_at});
    it->expiry = sim_->ScheduleAt(deadline_at, [this, it] {
      RaftNode::ProposeCallback expired = std::move(it->done);
      waiting_.erase(it);
      if (expired) {
        expired(0);
      }
    });
    return;
  }
  std::string command_copy = command;
  lead->Propose(std::move(command_copy),
                [this, command = std::move(command), on_commit = std::move(done),
                 deadline_at](LogIndex index) mutable {
                  if (index != 0) {
                    if (on_commit) {
                      on_commit(index);
                    }
                    return;
                  }
                  // Leadership changed under us: go to the current leader, or
                  // wait for the next one.
                  TrySubmit(std::move(command), std::move(on_commit), deadline_at);
                });
}

void RaftCluster::OnLeaderElected() {
  if (waiting_.empty()) {
    return;
  }
  sim_->Schedule(0, [this] {
    std::list<Waiting> ready = std::move(waiting_);
    waiting_.clear();
    for (Waiting& w : ready) {
      sim_->Cancel(w.expiry);
      TrySubmit(std::move(w.command), std::move(w.done), w.deadline_at);
    }
  });
}

void RaftCluster::CrashNode(NodeId id) { nodes_[static_cast<size_t>(id)]->Crash(); }

void RaftCluster::RestartNode(NodeId id) {
  RaftNode* node = nodes_[static_cast<size_t>(id)].get();
  if (apply_factory_) {
    node->set_apply(apply_factory_(id));
  }
  node->Restart();
}

}  // namespace radical
