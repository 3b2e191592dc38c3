// Determinism properties: a seeded run of the full system — protocol races,
// lock contention, validation failures, Raft elections and all — must be
// byte-identical when repeated. This is what makes every experiment in
// bench/ reproducible and every failure in tests/ replayable.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "src/apps/apps.h"
#include "src/lvi/lock_service.h"
#include "src/obs/span.h"

namespace radical {
namespace {

// Runs a mixed Radical workload and returns a fingerprint of every latency
// sample, protocol counter, and the final primary-store state.
std::string RunFingerprint(uint64_t seed) {
  Simulator sim(seed);
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;
  config.server.intent_timeout = Millis(600);
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions());
  const AppSpec app = MakeSocialApp();
  app.RegisterAll(&radical);
  app.seed(&radical);
  radical.WarmCaches();
  WorkloadFn workload = app.make_workload();
  Rng rng(seed * 13 + 1);
  std::ostringstream fingerprint;
  int completed = 0;
  for (int i = 0; i < 150; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    RequestSpec spec = workload(rng);
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(3)));
    sim.Schedule(at, [&, region, spec = std::move(spec)]() mutable {
      const SimTime start = sim.Now();
      radical.Invoke(region, spec.function, std::move(spec.inputs), [&, start](Value result) {
        fingerprint << (sim.Now() - start) << ":" << result.StableHash() << ";";
        ++completed;
      });
    });
  }
  sim.Run();
  fingerprint << "|completed=" << completed;
  for (const auto& [name, count] : radical.server().counters().all()) {
    fingerprint << "|" << name << "=" << count;
  }
  radical.primary().ForEachItem([&](const Key& key, const Item& item) {
    fingerprint << "|" << key << "@" << item.version << "=" << item.value.StableHash();
  });
  fingerprint << "|events=" << sim.events_fired() << "|now=" << sim.Now();
  return fingerprint.str();
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalRuns) {
  const std::string a = RunFingerprint(2121);
  const std::string b = RunFingerprint(2121);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  EXPECT_NE(RunFingerprint(1), RunFingerprint(2));
}

TEST(DeterminismTest, RaftElectionsAreSeedDeterministic) {
  auto elect = [](uint64_t seed) {
    Simulator sim(seed);
    LockService service(&sim, 5);
    const bool ok = service.Bootstrap();
    EXPECT_TRUE(ok);
    std::ostringstream out;
    out << service.cluster().LeaderId() << ":" << sim.Now() << ":" << sim.events_fired();
    return out.str();
  };
  EXPECT_EQ(elect(77), elect(77));
}

TEST(DeterminismTest, NetworkJitterIsSeedDeterministic) {
  auto sample = [](uint64_t seed) {
    Simulator sim(seed);
    Network net(&sim, LatencyMatrix::PaperDefault());
    std::ostringstream out;
    for (int i = 0; i < 50; ++i) {
      const SimTime sent = sim.Now();
      net.endpoint(Region::kJP).Send(net.endpoint(Region::kVA), net::MessageKind::kGeneric,
                                     net::kDefaultMessageBytes,
                                     [&, sent] { out << (sim.Now() - sent) << ","; });
      sim.Run();
    }
    return out.str();
  };
  EXPECT_EQ(sample(5), sample(5));
  EXPECT_NE(sample(5), sample(6));
}

// Export determinism: the observability layer's machine-readable outputs —
// the full metrics snapshot (with histogram reservoirs) and the Chrome
// trace-event span dump — must be byte-identical across same-seed runs.
TEST(DeterminismTest, MetricsSnapshotAndTraceExportAreByteIdentical) {
  auto exports = [](uint64_t seed) {
    Simulator sim(seed);
    Network net(&sim, LatencyMatrix::PaperDefault());
    RadicalDeployment radical(&sim, &net, RadicalConfig{}, DeploymentRegions());
    const AppSpec app = MakeSocialApp();
    app.RegisterAll(&radical);
    app.seed(&radical);
    radical.WarmCaches();
    obs::SpanCollector spans;
    radical.AttachSpans(&spans);
    WorkloadFn workload = app.make_workload();
    Rng rng(seed * 7 + 3);
    for (int i = 0; i < 60; ++i) {
      const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
      RequestSpec spec = workload(rng);
      const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(2)));
      sim.Schedule(at, [&radical, region, spec = std::move(spec)]() mutable {
        radical.Invoke(region, spec.function, std::move(spec.inputs), [](Value) {});
      });
    }
    sim.Run();
    return std::make_pair(sim.metrics().SnapshotJson(), spans.ToChromeTraceJson());
  };
  const auto a = exports(3131);
  const auto b = exports(3131);
  EXPECT_EQ(a.first, b.first);    // metrics snapshot
  EXPECT_EQ(a.second, b.second);  // trace-event JSON
  EXPECT_GT(a.second.size(), 1000u);  // Spans actually accumulated.
  const auto c = exports(3132);
  EXPECT_NE(a.first, c.first);  // Different seed really diverges.
}

}  // namespace
}  // namespace radical
