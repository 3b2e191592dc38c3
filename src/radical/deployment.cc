#include "src/radical/deployment.h"

#include <cassert>
#include <memory>

#include "src/lvi/codec.h"

namespace radical {

namespace {

// The near-storage location invokes backup copies the same way the near-user
// location invokes functions: Lambda instantiation plus blob load. Written
// into the deployment's config, so config().server is what the server runs.
RadicalConfig WithBackupInvokeOverhead(RadicalConfig config) {
  config.server.backup_invoke_overhead = config.lambda_invoke + config.blob_load;
  return config;
}

}  // namespace

RadicalDeployment::RadicalDeployment(Simulator* sim, Network* network, RadicalConfig config,
                                     std::vector<Region> regions, int replicated_locks)
    : sim_(sim),
      config_(WithBackupInvokeOverhead(std::move(config))),
      analyzer_(&HostRegistry::Standard()),
      interpreter_(&HostRegistry::Standard()),
      registry_(&analyzer_),
      primary_(config_.primary_store) {
  // One lock group per key-range shard, so the server's hot path and the
  // lock groups share one ShardRouter partition: local groups, or Raft
  // groups `replicated_locks` nodes wide (multi-Raft).
  locks_ = std::make_unique<LockService>(sim, replicated_locks, RaftOptions{}, LocalMeshOptions{},
                                         config_.server.shards);
  const bool elected = locks_->Bootstrap();
  assert(elected && "replicated lock service failed to elect a leader");
  (void)elected;
  server_ = std::make_unique<LviServer>(sim, &primary_, &registry_, &interpreter_, locks_.get(),
                                        config_.server, &externals_);
  // One shared server address on the fabric; every runtime's LVI traffic
  // converges on it, so per-link stats show the real fan-in. A sharded
  // server gets one channel per shard — runtimes route each request onto
  // its home shard's channel (the admission queues really are independent).
  server_endpoint_ =
      network->AddEndpoint("lvi-server", kPrimaryRegion, kServerHopRtt / 2);
  std::vector<net::Endpoint> shard_endpoints;
  if (config_.server.shards == 1) {
    shard_endpoints.push_back(server_endpoint_);
  } else {
    for (int shard = 0; shard < config_.server.shards; ++shard) {
      shard_endpoints.push_back(
          network->AddEndpoint("lvi-server.shard" + std::to_string(shard), kPrimaryRegion,
                               kServerHopRtt / 2));
    }
  }
  regions_ = regions;
  for (const Region region : regions) {
    auto runtime = std::make_unique<Runtime>(sim, network, region, kPrimaryRegion,
                                             server_.get(), &registry_, &interpreter_,
                                             config_, &externals_, server_endpoint_);
    runtime->set_shard_endpoints(shard_endpoints);
    runtimes_.emplace(region, std::move(runtime));
  }
  // Cache push: every execution's committed writes travel from the server to
  // every runtime, one message each; a runtime refreshes only the keys it
  // already caches. Lossy by design — a fabric drop rule on kCachePush gives
  // back the paper's pull-only cache.
  push_endpoint_ = network->AddEndpoint("lvi-server.push", kPrimaryRegion, kServerHopRtt / 2);
  server_->set_push_listener([this](CachePush push) {
    const size_t bytes = wire_scratch_.SizeOf(push);
    auto shared = std::make_shared<const CachePush>(std::move(push));
    for (const auto& [region, runtime] : runtimes_) {
      (void)region;
      push_endpoint_.Send(runtime->endpoint(), net::MessageKind::kCachePush, bytes,
                          [rt = runtime.get(), shared] { rt->OnCachePush(*shared); });
    }
  });
  // Store statistics surface as callback gauges: read at snapshot time, so
  // the kv hot paths carry no instrumentation cost.
  obs::MetricsRegistry& reg = sim->metrics();
  primary_.RegisterMetrics(&reg, reg.UniqueScopeName("store.primary"));
  for (const auto& [region, runtime] : runtimes_) {
    runtime->cache().RegisterMetrics(
        &reg, reg.UniqueScopeName(std::string("cache.") + RegionName(region)));
  }
}

void RadicalDeployment::AttachSpans(obs::SpanCollector* spans) {
  server_->set_span_collector(spans);
  for (auto& [region, runtime] : runtimes_) {
    (void)region;
    runtime->set_span_collector(spans);
  }
}

RadicalDeployment::~RadicalDeployment() = default;

void RadicalDeployment::Invoke(Region origin, const std::string& function,
                               std::vector<Value> inputs, std::function<void(Value)> done) {
  client(origin).Submit(Request{function, std::move(inputs)},
                        [done = std::move(done)](Outcome outcome) {
                          done(std::move(outcome.result));
                        });
}

const AnalyzedFunction& RadicalDeployment::RegisterFunction(const FunctionDef& fn) {
  return registry_.Register(fn);
}

void RadicalDeployment::Seed(const Key& key, const Value& value) { primary_.Seed(key, value); }

void RadicalDeployment::WarmCaches() {
  primary_.ForEachItem([this](const Key& key, const Item& item) {
    for (auto& [region, runtime] : runtimes_) {
      (void)region;
      runtime->cache().Install(key, item.value, item.version);
    }
  });
}

Runtime& RadicalDeployment::runtime(Region region) {
  const auto it = runtimes_.find(region);
  assert(it != runtimes_.end() && "no runtime deployed in this region");
  return *it->second;
}

PrimaryBaselineDeployment::PrimaryBaselineDeployment(Simulator* sim, Network* network,
                                                     RadicalConfig config)
    : sim_(sim),
      network_(network),
      config_(WithBackupInvokeOverhead(std::move(config))),
      analyzer_(&HostRegistry::Standard()),
      interpreter_(&HostRegistry::Standard()),
      registry_(&analyzer_),
      primary_(config_.primary_store) {
  locks_ = std::make_unique<LockService>(sim);
  server_ = std::make_unique<LviServer>(sim, &primary_, &registry_, &interpreter_, locks_.get(),
                                        config_.server, &externals_);
  obs::MetricsRegistry& reg = sim->metrics();
  primary_.RegisterMetrics(&reg, reg.UniqueScopeName("store.primary"));
}

void PrimaryBaselineDeployment::Invoke(Region origin, const std::string& function,
                                       std::vector<Value> inputs,
                                       std::function<void(Value)> done) {
  // The request crosses the WAN to the application running beside the
  // primary, executes there, and the response crosses back. No server hop:
  // the client invokes the application directly.
  DirectRequest request;
  request.exec_id = sim_->NextId();
  request.origin = origin;
  request.function = function;
  request.inputs = std::move(inputs);
  std::set<ExecutionId>& open = open_ids_[origin];
  open.insert(request.exec_id);
  request.ack = Ack{0, *open.begin()};
  const size_t request_size = wire_scratch_.SizeOf(request);
  network_->endpoint(origin).Send(
      network_->endpoint(kPrimaryRegion), net::MessageKind::kDirectRequest, request_size,
      [this, origin, request = std::move(request), done = std::move(done)]() mutable {
        server_->HandleDirect(
            std::move(request),
            [this, origin, done = std::move(done)](DirectResponse response) mutable {
              const size_t response_size = wire_scratch_.SizeOf(response);
              network_->endpoint(kPrimaryRegion)
                  .Send(network_->endpoint(origin), net::MessageKind::kDirectResponse,
                        response_size,
                        [this, origin, exec_id = response.exec_id, done = std::move(done),
                         result = std::move(response.result)]() mutable {
                          open_ids_[origin].erase(exec_id);
                          done(std::move(result));
                        });
            });
      });
}

const AnalyzedFunction& PrimaryBaselineDeployment::RegisterFunction(const FunctionDef& fn) {
  return registry_.Register(fn);
}

void PrimaryBaselineDeployment::Seed(const Key& key, const Value& value) {
  primary_.Seed(key, value);
}

LocalIdealDeployment::LocalIdealDeployment(Simulator* sim, RadicalConfig config,
                                           std::vector<Region> regions)
    : sim_(sim),
      config_(std::move(config)),
      analyzer_(&HostRegistry::Standard()),
      interpreter_(&HostRegistry::Standard()),
      registry_(&analyzer_) {
  for (const Region region : regions) {
    // Local storage with cache-grade latency: the paper's red line runs each
    // location against its own (inconsistent) local store.
    VersionedStoreOptions options;
    options.read_latency = config_.cache.read_latency;
    options.write_latency = config_.cache.write_latency;
    stores_.emplace(region, std::make_unique<VersionedStore>(options));
  }
  obs::MetricsRegistry& reg = sim->metrics();
  for (const auto& [region, store] : stores_) {
    store->RegisterMetrics(
        &reg, reg.UniqueScopeName(std::string("store.") + RegionName(region)));
  }
}

void LocalIdealDeployment::Invoke(Region origin, const std::string& function,
                                  std::vector<Value> inputs, std::function<void(Value)> done) {
  const AnalyzedFunction* fn = registry_.Find(function);
  assert(fn != nullptr && "function not registered");
  sim_->Schedule(config_.lambda_invoke + config_.blob_load,
                 [this, fn, origin, inputs = std::move(inputs), done = std::move(done)]() mutable {
                   const ExecEnv env{sim_->NextId(), &externals_};
                   const ExecResult exec = interpreter_.Execute(fn->original, inputs,
                                                                &store(origin),
                                                                config_.server.exec_limits, &env);
                   assert(exec.ok() && "ideal execution failed");
                   sim_->Schedule(exec.elapsed, [done = std::move(done),
                                                 result = exec.return_value]() mutable {
                     done(std::move(result));
                   });
                 });
}

const AnalyzedFunction& LocalIdealDeployment::RegisterFunction(const FunctionDef& fn) {
  return registry_.Register(fn);
}

void LocalIdealDeployment::Seed(const Key& key, const Value& value) {
  for (auto& [region, store] : stores_) {
    (void)region;
    store->Seed(key, value);
  }
}

VersionedStore& LocalIdealDeployment::store(Region region) {
  const auto it = stores_.find(region);
  assert(it != stores_.end() && "no local store in this region");
  return *it->second;
}

}  // namespace radical
