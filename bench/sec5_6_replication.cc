// §5.6: impact of replicating the LVI server. Locks move into a 3-node
// etcd-style Raft cluster across availability zones. The paper's
// implementation acquires the locks in series, one commit each, so an LVI
// request with L locks pays roughly (idempotency-key write) + 2.3*L ms extra;
// it leaves batching as future work. The deployed LockService batches: one
// commit per lock group a request touches.
//
// Reproduces: (a) the per-lock acquisition latency through Raft (~2.3 ms),
// by chaining single-key acquisitions as the paper's implementation does,
// (b) its linear 2.3*L growth against the batched path's one commit, and
// (c) the effect on an LVI request's server-side processing with L locks on
// the deployed path, next to the paper's 3 + 2.3*L model.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "src/check/linearizability.h"
#include "src/func/builder.h"
#include "src/lvi/lock_service.h"

namespace radical {
namespace {

// Median latency of one execution acquiring L locks through the Raft
// cluster. `serial` reproduces the paper's implementation: L single-key
// acquisitions, each issued once the previous one is granted, so every lock
// costs one commit. Otherwise the L keys go to the service in one call,
// which commits them as one run (the deployed path). Both run on the same
// seed, so at L = 1, where they issue the same command, they agree exactly.
double MeasureAcquire(int num_locks, bool serial) {
  Simulator sim(600 + static_cast<uint64_t>(num_locks));
  LockService service(&sim, 3);
  if (!service.Bootstrap()) {
    return -1;
  }
  sim.RunFor(Millis(200));
  const size_t step = serial ? 1 : static_cast<size_t>(num_locks);
  LatencySampler samples;
  for (int round = 0; round < 50; ++round) {
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    for (int i = 0; i < num_locks; ++i) {
      keys.push_back("r" + std::to_string(round) + "-k" + std::to_string(i));
      modes.push_back(LockMode::kWrite);
    }
    const SimTime start = sim.Now();
    bool done = false;
    const ExecutionId exec = 1000 + static_cast<ExecutionId>(round);
    // Acquires keys [from, from + step), then the next step once granted.
    std::function<void(size_t)> acquire = [&](size_t from) {
      if (from == keys.size()) {
        samples.Add(sim.Now() - start);
        done = true;
        return;
      }
      const size_t to = from + step;
      const auto begin = static_cast<std::ptrdiff_t>(from);
      const auto end = static_cast<std::ptrdiff_t>(to);
      service.AcquireAll(exec, {keys.begin() + begin, keys.begin() + end},
                         {modes.begin() + begin, modes.begin() + end},
                         [&acquire, to] { acquire(to); });
    };
    acquire(0);
    sim.RunFor(Millis(500));
    if (!done) {
      return -1;
    }
    service.ReleaseAll(exec);
    sim.RunFor(Millis(50));
  }
  return samples.MedianMs();
}

// End-to-end latency of one write-validating LVI request with L locks,
// singleton vs replicated server (server-side only: request handled locally).
double MeasureServerSide(int num_locks, bool replicated) {
  Simulator sim(700 + static_cast<uint64_t>(num_locks) * 2 + (replicated ? 1 : 0));
  Analyzer analyzer(&HostRegistry::Standard());
  Interpreter interp(&HostRegistry::Standard());
  FunctionRegistry registry(&analyzer);
  VersionedStore store;
  // A function writing L keys derived from its inputs.
  StmtList body;
  for (int i = 0; i < num_locks; ++i) {
    body.push_back(Write(Cat({C("k" + std::to_string(i) + ":"), In("id")}), In("id")));
  }
  body.push_back(Return(In("id")));
  registry.Register(Fn("writer", {"id"}, std::move(body)));

  LockService locks(&sim, replicated ? 3 : 0);
  if (replicated) {
    locks.Bootstrap();
    sim.RunFor(Millis(200));
  }
  LviServerOptions options;
  LviServer server(&sim, &store, &registry, &interp, &locks, options);

  LatencySampler samples;
  for (int round = 0; round < 50; ++round) {
    const std::string id = "x" + std::to_string(round);
    LviRequest request;
    request.exec_id = sim.NextId();
    request.origin = Region::kCA;
    request.function = "writer";
    request.inputs = {Value(id)};
    for (int i = 0; i < num_locks; ++i) {
      request.items.push_back(
          LviItem{"k" + std::to_string(i) + ":" + id, kMissingVersion, LockMode::kWrite});
    }
    std::sort(request.items.begin(), request.items.end(),
              [](const LviItem& a, const LviItem& b) { return a.key < b.key; });
    const SimTime start = sim.Now();
    const ExecutionId exec_id = request.exec_id;
    bool responded = false;
    server.HandleLviRequest(std::move(request), [&](LviResponse) {
      samples.Add(sim.Now() - start);
      responded = true;
    });
    sim.RunFor(Millis(300));
    if (!responded) {
      return -1;
    }
    WriteFollowup followup;
    followup.exec_id = exec_id;
    server.HandleFollowup(std::move(followup));
    sim.RunFor(Millis(100));
  }
  return samples.MedianMs();
}

// AppendEntries messages sent per committed entry, summed over the
// service's lock groups (a group's commits are its highest commit index).
double AppendsPerCommit(Simulator& sim, LockService& service) {
  uint64_t appends = 0;
  uint64_t commits = 0;
  for (int g = 0; g < service.shards(); ++g) {
    RaftCluster& cluster = service.cluster(g);
    appends += sim.metrics().CounterValue(cluster.mesh().fabric().metrics_prefix() +
                                          ".kind.raft_append.sent");
    LogIndex committed = 0;
    for (NodeId id = 0; id < cluster.size(); ++id) {
      committed = std::max(committed, cluster.node(id)->commit_index());
    }
    commits += committed;
  }
  return commits == 0 ? 0.0 : static_cast<double>(appends) / static_cast<double>(commits);
}

// Multi-Raft scale-out: open-loop single-lock write cycles (unique keys, so
// no lock contention — the bottleneck is the groups' proposal capacity)
// against 1, 2 or 4 Raft lock groups. Each op costs two commits (acquire +
// release); with a finite per-leader proposal rate, one group saturates and
// sharding the groups recovers the offered load.
ThroughputPoint MeasureShardThroughput(int groups) {
  const double offered = 2000.0;
  const SimDuration warmup = Millis(300);
  const SimDuration window = BenchSmokeMode() ? Millis(400) : Seconds(2);
  const SimDuration drain = Seconds(1);
  const SimDuration goodput_deadline = Millis(25);

  Simulator sim(900 + static_cast<uint64_t>(groups));
  RaftOptions raft;
  raft.proposal_capacity_rps = 1200;
  LockService service(&sim, 3, raft, LocalMeshOptions{}, groups);
  ThroughputPoint point;
  point.shards = groups;
  point.raft_groups = groups;
  point.offered_rps = offered;
  if (!service.Bootstrap()) {
    return point;
  }
  sim.RunFor(warmup);

  const SimDuration gap = static_cast<SimDuration>(1e6 / offered);
  const int total = static_cast<int>(window / gap);
  // Offered keys round-robin across the lock groups. Picking keys by their
  // actual ShardOf (rather than trusting sequential names to hash evenly —
  // FNV-1a's high bits barely move across short same-prefix keys) keeps the
  // per-group load balanced, which is the quantity this curve varies: the
  // groups' aggregate proposal pipeline, not the router's hash spread. The
  // candidate names are scanned once, each kept in its group's bucket until
  // every bucket is full; op i takes the next key of bucket i % groups.
  const size_t per_group = static_cast<size_t>((total + groups - 1) / groups);
  std::vector<std::vector<Key>> buckets(static_cast<size_t>(groups));
  for (int full = 0, candidate = 0; per_group > 0 && full < groups; ++candidate) {
    Key key = "op" + std::to_string(candidate);
    std::vector<Key>& bucket = buckets[static_cast<size_t>(service.router().ShardOf(key))];
    if (bucket.size() < per_group) {
      bucket.push_back(std::move(key));
      full += bucket.size() == per_group ? 1 : 0;
    }
  }
  std::vector<Key> op_keys;
  op_keys.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    op_keys.push_back(buckets[static_cast<size_t>(i % groups)][static_cast<size_t>(i / groups)]);
  }
  struct Op {
    SimTime start = 0;
    SimTime done = -1;
  };
  std::vector<Op> ops(static_cast<size_t>(total));
  bool holds_on_grant = true;  // Grant really holds the lock at the leader.
  for (int i = 0; i < total; ++i) {
    sim.Schedule(static_cast<SimDuration>(i) * gap, [&, i] {
      const ExecutionId exec = 10000 + static_cast<ExecutionId>(i);
      const Key& key = op_keys[static_cast<size_t>(i)];
      ops[static_cast<size_t>(i)].start = sim.Now();
      service.AcquireAll(exec, {key}, {LockMode::kWrite}, [&, i, exec, key] {
        ops[static_cast<size_t>(i)].done = sim.Now();
        const LockStateMachine* machine =
            service.LeaderState(service.router().ShardOf(key));
        if (machine == nullptr || !machine->IsWriteHeldBy(key, exec)) {
          holds_on_grant = false;
        }
        service.ReleaseAll(exec);
      });
    });
  }
  const SimTime t0 = sim.Now();
  sim.RunFor(window + drain);

  LatencySampler latencies;
  int completed_in_window = 0;
  int good = 0;
  int completed = 0;
  for (const Op& op : ops) {
    if (op.done < 0) {
      continue;
    }
    ++completed;
    latencies.Add(op.done - op.start);
    if (op.done <= t0 + window) {
      ++completed_in_window;
      if (op.done - op.start <= goodput_deadline) {
        ++good;
      }
    }
  }
  const double window_s = static_cast<double>(window) / 1e6;
  point.throughput_rps = completed_in_window / window_s;
  point.goodput_rps = good / window_s;
  point.p50_ms = latencies.PercentileMs(50);
  point.p90_ms = latencies.PercentileMs(90);
  point.p99_ms = latencies.PercentileMs(99);
  point.replies_pct = total == 0 ? 0.0 : 100.0 * completed / total;
  // Uncontended unique-key locks: the per-grant holds-at-leader invariant is
  // the whole correctness story for this curve.
  point.linearizable = holds_on_grant;
  point.compensating_releases = service.compensating_releases();
  point.raft_nodes = service.cluster().size();
  point.appends_per_commit = AppendsPerCommit(sim, service);
  return point;
}

// Leader kill/rejoin sweep: a full deployment with replicated locks in
// `groups` Raft groups runs a register read/write mix while every group's
// leader is crashed mid-workload and restarted later. Every Invoke must be
// answered and the observed history must stay linearizable.
ThroughputPoint MeasureFailover(int groups) {
  const int total_ops = BenchSmokeMode() ? 24 : 80;
  const SimDuration issue_window = Seconds(6);
  Simulator sim(4200 + static_cast<uint64_t>(groups));
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;
  config.server.shards = groups;
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions(), /*replicated_locks=*/3);
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
  const std::vector<Key> keys = {"ka", "kb", "kc"};
  std::map<Key, Value> initials;
  for (const Key& key : keys) {
    radical.Seed(key, Value("v0"));
    initials[key] = Value("v0");
  }
  radical.WarmCaches();

  HistoryRecorder history;
  LatencySampler latencies;
  Rng rng(31337 + static_cast<uint64_t>(groups));
  int unique = 0;
  for (int i = 0; i < total_ops; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const bool is_write = rng.NextBool(0.5);
    const Key key = keys[rng.NextBelow(keys.size())];
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(issue_window));
    sim.Schedule(at, [&, region, is_write, key] {
      const SimTime invoke = sim.Now();
      if (is_write) {
        const Value value("w" + std::to_string(unique++));
        radical.Invoke(region, "reg_write", {Value(key), value}, [&, key, value, invoke](Value) {
          latencies.Add(sim.Now() - invoke);
          history.Record(HistoryOp{true, key, value, invoke, sim.Now()});
        });
      } else {
        radical.Invoke(region, "reg_read", {Value(key)}, [&, key, invoke](Value result) {
          latencies.Add(sim.Now() - invoke);
          history.Record(HistoryOp{false, key, std::move(result), invoke, sim.Now()});
        });
      }
    });
  }

  // Crash every group's leader mid-workload, staggered, and restart each a
  // second later: each group goes through a full leaderless spell and
  // re-election while requests are in flight.
  uint64_t kills = 0;
  for (int g = 0; g < groups; ++g) {
    const SimDuration at = Seconds(2) + static_cast<SimDuration>(g) * Millis(700);
    sim.Schedule(at, [&, g] {
      RaftCluster& cluster = radical.locks().cluster(g);
      const NodeId leader = cluster.LeaderId();
      if (leader < 0) {
        return;
      }
      ++kills;
      cluster.CrashNode(leader);
      sim.Schedule(Seconds(1), [&cluster, leader] { cluster.RestartNode(leader); });
    });
  }
  sim.RunFor(issue_window + Seconds(8));

  ThroughputPoint point;
  point.shards = groups;
  point.raft_groups = groups;
  point.clients = total_ops;
  point.offered_rps = total_ops / (static_cast<double>(issue_window) / 1e6);
  point.throughput_rps = history.size() / (static_cast<double>(issue_window) / 1e6);
  point.goodput_rps = point.throughput_rps;
  point.p50_ms = latencies.PercentileMs(50);
  point.p90_ms = latencies.PercentileMs(90);
  point.p99_ms = latencies.PercentileMs(99);
  point.leader_kills = kills;
  point.replies_pct = 100.0 * static_cast<double>(history.size()) / total_ops;
  point.compensating_releases = radical.locks().compensating_releases();
  point.raft_nodes = radical.locks().cluster().size();
  point.appends_per_commit = AppendsPerCommit(sim, radical.locks());
  const LinearizabilityResult check = CheckHistory(history, initials);
  point.linearizable = check.linearizable;
  if (!check.linearizable) {
    std::printf("  !! history not linearizable: %s\n", check.violation.c_str());
  }
  return point;
}

void Run(BenchReport* report) {
  std::printf("Section 5.6: impact of replicating the LVI server (3-node Raft lock store)\n\n");
  std::printf("Per-acquisition latency through Raft (paper: ~2.3 ms per lock, serial;\n");
  std::printf("measured by chaining single-key acquisitions):\n");
  const std::vector<int> widths = {7, 13, 15, 17};
  PrintTableHeader({"locks", "acquire ms", "ms per lock", "paper 2.3*L ms"}, widths);
  for (const int locks : {1, 2, 4, 8}) {
    const double ms = MeasureAcquire(locks, /*serial=*/true);
    PrintTableRow({std::to_string(locks), Ms(ms), Ms(ms / locks, 2),
                   Ms(2.3 * locks, 1)},
                  widths);
  }
  PrintRule(widths);

  std::printf("\nSerial vs batched acquisition (the paper's one commit per lock vs the\n");
  std::printf("deployed one commit per lock group, the future-work optimization the\n");
  std::printf("paper anticipates):\n");
  const std::vector<int> widths_b = {7, 12, 12, 13};
  PrintTableHeader({"locks", "serial ms", "batched ms", "batch saves"}, widths_b);
  ThroughputCurve acquire_curve;
  acquire_curve.name = "replicated_acquire";
  for (const int locks : {1, 2, 4, 8}) {
    const double serial = MeasureAcquire(locks, /*serial=*/true);
    const double batched = MeasureAcquire(locks, /*serial=*/false);
    PrintTableRow({std::to_string(locks), Ms(serial), Ms(batched), Ms(serial - batched)},
                  widths_b);
    ThroughputPoint point;
    point.locks = locks;
    point.serial_ms = serial;
    point.batched_ms = batched;
    acquire_curve.points.push_back(point);
  }
  PrintRule(widths_b);
  report->AddCurve(acquire_curve);

  std::printf("\nServer-side LVI request latency, singleton vs replicated (write path):\n");
  const std::vector<int> widths2 = {7, 13, 14, 12, 19};
  PrintTableHeader({"locks", "singleton ms", "replicated ms", "added ms", "paper 3+2.3*L ms"},
                   widths2);
  for (const int locks : {1, 2, 4, 8}) {
    const double single = MeasureServerSide(locks, /*replicated=*/false);
    const double repl = MeasureServerSide(locks, /*replicated=*/true);
    PrintTableRow({std::to_string(locks), Ms(single), Ms(repl), Ms(repl - single),
                   Ms(3.0 + 2.3 * locks, 1)},
                  widths2);
  }
  PrintRule(widths2);
  std::printf(
      "\nShape: the deployed server commits a request's locks in one Raft commit\n"
      "per lock group (one group here), so the added latency is flat at ~3 ms for\n"
      "the idempotency key plus ~2.3 ms, whatever the lock count. The paper's\n"
      "serial implementation adds 3 + 2.3*L ms (right column; the serial column\n"
      "above measures its 2.3*L), so the minimum beneficial execution time of\n"
      "~16 + 2.3*L ms becomes ~16 + 2.3 ms per lock group touched.\n");
}

// Multi-Raft curves: throughput vs lock-group count, and the leader
// kill/rejoin sweep. Returns false when a correctness gate fails (<100%
// replies or a non-linearizable history).
bool RunMultiRaft(BenchReport* report) {
  std::printf("\nMulti-Raft lock groups: open-loop single-lock ops vs group count\n");
  std::printf("(finite per-leader proposal rate; one group saturates, four do not):\n");
  const std::vector<int> widths = {8, 13, 15, 13, 9, 9};
  PrintTableHeader({"groups", "offered rps", "throughput rps", "goodput rps", "p50 ms", "p99 ms"},
                   widths);
  ThroughputCurve shard_curve;
  shard_curve.name = "replicated_shards";
  for (const int groups : {1, 2, 4}) {
    const ThroughputPoint p = MeasureShardThroughput(groups);
    PrintTableRow({std::to_string(groups), Ms(p.offered_rps, 0), Ms(p.throughput_rps, 0),
                   Ms(p.goodput_rps, 0), Ms(p.p50_ms), Ms(p.p99_ms)},
                  widths);
    shard_curve.points.push_back(p);
  }
  PrintRule(widths);
  report->AddCurve(shard_curve);

  std::printf("\nLeader kill/rejoin sweep (full deployment, every group's leader crashed\n");
  std::printf("mid-workload and restarted; history checked for linearizability):\n");
  const std::vector<int> widths_f = {8, 7, 12, 9, 9, 14};
  PrintTableHeader({"groups", "kills", "replies pct", "p50 ms", "p99 ms", "linearizable"},
                   widths_f);
  ThroughputCurve failover_curve;
  failover_curve.name = "replicated_failover";
  bool ok = true;
  for (const int groups : {1, 4}) {
    const ThroughputPoint p = MeasureFailover(groups);
    PrintTableRow({std::to_string(groups), std::to_string(p.leader_kills),
                   Ms(p.replies_pct, 1), Ms(p.p50_ms), Ms(p.p99_ms),
                   p.linearizable ? "yes" : "NO"},
                  widths_f);
    failover_curve.points.push_back(p);
    if (p.replies_pct < 100.0 || !p.linearizable) {
      ok = false;
    }
  }
  PrintRule(widths_f);
  report->AddCurve(failover_curve);
  if (!ok) {
    std::printf("\nFAIL: a failover point lost replies or violated linearizability.\n");
  }
  return ok;
}

}  // namespace
}  // namespace radical

int main() {
  radical::BenchReport report("sec5_6_replication");
  radical::Run(&report);
  const bool ok = radical::RunMultiRaft(&report);
  report.Write();
  return ok ? 0 : 1;
}
