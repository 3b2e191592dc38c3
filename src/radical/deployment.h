// Deployments: wiring for a whole Radical system and for the baselines the
// evaluation compares against.
//
//  - RadicalDeployment: primary store + LVI server in the near-storage
//    region, a Runtime (with its cache) per deployment location (§3.1).
//  - PrimaryBaselineDeployment: the paper's baseline — every request is sent
//    to the application copy running alongside the primary (§5.3).
//  - LocalIdealDeployment: the "red line" — each location executes against
//    local, *inconsistent* storage; the best possible latency and a bound no
//    consistent system can beat (§2, §5.3).
//
// All three expose the same AppService interface so workloads and load
// generators are deployment-agnostic.

#ifndef RADICAL_SRC_RADICAL_DEPLOYMENT_H_
#define RADICAL_SRC_RADICAL_DEPLOYMENT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/radical/client.h"
#include "src/radical/runtime.h"
#include "src/radical/session.h"
#include "src/sim/region.h"

namespace radical {

class AppService {
 public:
  virtual ~AppService() = default;

  // Invokes `function` on behalf of a client colocated with `origin`.
  virtual void Invoke(Region origin, const std::string& function, std::vector<Value> inputs,
                      std::function<void(Value)> done) = 0;

  // Registers a function with the deployment (runs the static analyzer).
  virtual const AnalyzedFunction& RegisterFunction(const FunctionDef& fn) = 0;

  // Seeds an item into the deployment's authoritative storage.
  virtual void Seed(const Key& key, const Value& value) = 0;

  // External services reachable from this deployment's functions (§3.5).
  virtual ExternalServiceRegistry& externals() = 0;
};

// The name perfbench/radical_perfbench.cc uses for the lock service.
using ReplicatedLockService = LockService;

class RadicalDeployment : public AppService {
 public:
  // The locks live in one lock group per server shard. `replicated_locks > 0`
  // switches the LVI server to the §5.6 configuration, with that many Raft
  // nodes in each group: `config.server.shards > 1` runs that many
  // independent groups (multi-Raft), one per key-range shard.
  RadicalDeployment(Simulator* sim, Network* network, RadicalConfig config,
                    std::vector<Region> regions, int replicated_locks = 0);
  ~RadicalDeployment() override;

  void Invoke(Region origin, const std::string& function, std::vector<Value> inputs,
              std::function<void(Value)> done) override;
  const AnalyzedFunction& RegisterFunction(const FunctionDef& fn) override;
  // Seeding writes the primary directly and sends no cache push.
  void Seed(const Key& key, const Value& value) override;

  // Copies every primary item (value and version) into every cache: the
  // steady state after the gradual bootstrap of §3.2. Sends no cache push.
  void WarmCaches();

  // Routes every runtime's and the server's protocol-leg spans into
  // `spans` (nullptr detaches). The collector must outlive the deployment's
  // remaining requests.
  void AttachSpans(obs::SpanCollector* spans);

  Runtime& runtime(Region region);
  // The submission facade for clients colocated with `region` — the
  // preferred entry point (cheap, copyable; see src/radical/client.h).
  Client client(Region region) { return Client(&runtime(region)); }
  // Opens a session bound to `region`'s runtime: preview+final callbacks,
  // read-your-writes / monotonic reads, and transparent failover to another
  // deployment location when that runtime crashes (src/radical/session.h).
  Session OpenSession(Region region) {
    return Session(this, region, AllocateSessionId());
  }
  // Session ids come from a plain deployment counter — NOT sim->NextId(),
  // whose allocation order is part of the pinned deterministic schedule.
  uint64_t AllocateSessionId() { return ++next_session_id_; }
  const std::vector<Region>& regions() const { return regions_; }
  // PoP failure injection: Crash() orphans the region's in-flight requests
  // and wipes its cache; sessions bound there fail over immediately.
  void CrashRuntime(Region region) { runtime(region).Crash(); }
  void RecoverRuntime(Region region) { runtime(region).Recover(); }
  LviServer& server() { return *server_; }
  // The LVI server's fabric address, shared by every runtime; its
  // extra_hop_delay models the intra-DC hop to the server's EC2 instance.
  const net::Endpoint& server_endpoint() const { return server_endpoint_; }
  // Where the server's cache pushes leave from: next to the server (same
  // intra-DC hop), on channels of their own, so a fault aimed at pushes —
  // a delay spike, a partition — leaves LVI responses alone.
  const net::Endpoint& push_endpoint() const { return push_endpoint_; }
  VersionedStore& primary() { return primary_; }
  FunctionRegistry& registry() { return registry_; }
  ExternalServiceRegistry& externals() override { return externals_; }
  const RadicalConfig& config() const { return config_; }
  LockService& locks() { return *locks_; }
  // The lock service when its groups are local, or Raft; null otherwise.
  // Kept for perfbench/radical_perfbench.cc, which still uses them.
  LockService* local_locks() { return locks_->replicated() ? nullptr : locks_.get(); }
  LockService* replicated_locks() { return locks_->replicated() ? locks_.get() : nullptr; }

 private:
  Simulator* sim_;
  RadicalConfig config_;
  Analyzer analyzer_;
  Interpreter interpreter_;
  FunctionRegistry registry_;
  ExternalServiceRegistry externals_;
  VersionedStore primary_;
  std::unique_ptr<LockService> locks_;
  std::unique_ptr<LviServer> server_;
  net::Endpoint server_endpoint_;
  net::Endpoint push_endpoint_;
  std::map<Region, std::unique_ptr<Runtime>> runtimes_;
  std::vector<Region> regions_;
  uint64_t next_session_id_ = 0;
  // Sizes each cache push on the wire.
  WireScratch wire_scratch_;
};

class PrimaryBaselineDeployment : public AppService {
 public:
  PrimaryBaselineDeployment(Simulator* sim, Network* network, RadicalConfig config);

  void Invoke(Region origin, const std::string& function, std::vector<Value> inputs,
              std::function<void(Value)> done) override;
  const AnalyzedFunction& RegisterFunction(const FunctionDef& fn) override;
  void Seed(const Key& key, const Value& value) override;

  VersionedStore& primary() { return primary_; }
  LviServer& server() { return *server_; }
  ExternalServiceRegistry& externals() override { return externals_; }

 private:
  Simulator* sim_;
  Network* network_;
  RadicalConfig config_;
  Analyzer analyzer_;
  Interpreter interpreter_;
  FunctionRegistry registry_;
  ExternalServiceRegistry externals_;
  VersionedStore primary_;
  std::unique_ptr<LockService> locks_;
  std::unique_ptr<LviServer> server_;
  // Per client region, the ids still waiting for their response. The
  // smallest is each new request's acknowledgement, so the server keeps a
  // reply only while it is in flight.
  std::map<Region, std::set<ExecutionId>> open_ids_;
  // Reusable codec scratch for measuring request/response wire sizes.
  WireScratch wire_scratch_;
};

class LocalIdealDeployment : public AppService {
 public:
  LocalIdealDeployment(Simulator* sim, RadicalConfig config, std::vector<Region> regions);

  void Invoke(Region origin, const std::string& function, std::vector<Value> inputs,
              std::function<void(Value)> done) override;
  const AnalyzedFunction& RegisterFunction(const FunctionDef& fn) override;
  // Seeds every region's local (divergent-by-design) store.
  void Seed(const Key& key, const Value& value) override;

  VersionedStore& store(Region region);
  ExternalServiceRegistry& externals() override { return externals_; }

 private:
  Simulator* sim_;
  RadicalConfig config_;
  Analyzer analyzer_;
  Interpreter interpreter_;
  FunctionRegistry registry_;
  ExternalServiceRegistry externals_;
  std::map<Region, std::unique_ptr<VersionedStore>> stores_;
};

}  // namespace radical

#endif  // RADICAL_SRC_RADICAL_DEPLOYMENT_H_
