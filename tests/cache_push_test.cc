// Cache push: the primary pushes every committed write to the near-user
// caches (src/lvi/messages.h, CachePush). These tests pin what a push may do
// — refresh a key the cache already holds, to a newer version, while the
// runtime is up — and what it never does: insert a key, lower a version, or
// fire for seeding and cache warming. Correctness under lost and late pushes
// is checked in linearizability_test.cc.

#include <gtest/gtest.h>

#include <optional>

#include "src/func/builder.h"
#include "src/radical/deployment.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

NetworkOptions NoJitter() {
  NetworkOptions options;
  options.jitter_stddev_frac = 0.0;
  return options;
}

class CachePushTest : public ProfiledTest {
 protected:
  explicit CachePushTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), sim_(7), net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, RadicalConfig{},
                                                    DeploymentRegions());
    radical_->RegisterFunction(Fn("reg_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(20)),
        Return(V("v")),
    }));
    radical_->RegisterFunction(Fn("reg_write", {"k", "v"}, {
        Write(In("k"), In("v")),
        Compute(Millis(20)),
        Return(In("v")),
    }));
    // Reads the key it overwrites: a stale cached copy fails validation (a
    // blind write's cached version is never compared).
    radical_->RegisterFunction(Fn("rmw_write", {"k", "v"}, {
        Read("old", In("k")),
        Write(In("k"), In("v")),
        Compute(Millis(20)),
        Return(In("v")),
    }));
    radical_->Seed("k", Value("v0"));
    radical_->WarmCaches();
  }

  // Invokes `function` at `origin` and runs the simulation to quiescence.
  Value InvokeAndRun(Region origin, const std::string& function, std::vector<Value> inputs) {
    std::optional<Value> result;
    radical_->Invoke(origin, function, std::move(inputs), [&](Value v) { result = std::move(v); });
    sim_.Run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(Value());
  }

  CacheStore& cache(Region region) { return radical_->runtime(region).cache(); }
  uint64_t Counter(Region region, const char* name) {
    return radical_->runtime(region).counters().Get(name);
  }
  uint64_t PushesSent() { return net_.fabric().messages_of(net::MessageKind::kCachePush); }

  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(CachePushTest, WriteReachesOtherCacheOneOneWayDelayLater) {
  const net::Endpoint& de = radical_->runtime(Region::kDE).endpoint();
  const SimDuration one_way =
      net_.latency().OneWay(kPrimaryRegion, Region::kDE) + kServerHopRtt / 2;
  std::optional<SimTime> sent_at;
  Version before = kMissingVersion;
  Version after = kMissingVersion;
  net_.fabric().SetFilter([&](const net::SendContext& ctx) {
    if (ctx.kind == net::MessageKind::kCachePush && ctx.to == de.id() && !sent_at) {
      sent_at = sim_.Now();
      sim_.Schedule(one_way - 1, [&] { before = cache(Region::kDE).VersionOf("k"); });
      sim_.Schedule(one_way + 1, [&] { after = cache(Region::kDE).VersionOf("k"); });
    }
    return true;
  });
  EXPECT_EQ(InvokeAndRun(Region::kCA, "reg_write", {Value("k"), Value("v1")}), Value("v1"));
  ASSERT_TRUE(sent_at.has_value());
  const Version primary = radical_->primary().Peek("k")->version;
  EXPECT_LT(before, primary);
  EXPECT_EQ(after, primary);
  EXPECT_EQ(cache(Region::kDE).Peek("k")->value, Value("v1"));
  EXPECT_EQ(Counter(Region::kDE, "cache_push_applied"), 1u);

  // DE's next read validates against the pushed copy: no backup execution.
  const uint64_t failed = radical_->server().validations_failed();
  EXPECT_EQ(InvokeAndRun(Region::kDE, "reg_read", {Value("k")}), Value("v1"));
  EXPECT_EQ(radical_->server().validations_failed(), failed);
}

PROFILE_TEST(CachePushTest, BackupWritersPushLeavesWhenItsComputeEnds) {
  // The primary moves on without telling the caches, so CA's
  // read-modify-write speculates on a stale version, fails validation, and
  // runs as a backup.
  radical_->primary().Put("k", Value("v-moved"), nullptr);
  std::optional<SimTime> pushed_at;
  net_.fabric().SetFilter([&](const net::SendContext& ctx) {
    if (ctx.kind == net::MessageKind::kCachePush && !pushed_at) {
      pushed_at = sim_.Now();
    }
    return true;
  });
  std::optional<Value> result;
  radical_->Invoke(Region::kCA, "rmw_write", {Value("k"), Value("v1")},
                   [&](Value v) { result = std::move(v); });
  while (radical_->server().validations_failed() == 0 && sim_.Step()) {
  }
  // The backup's read point is one invoke overhead away; its 20 ms compute
  // follows. The write, and its push, wait for the compute to end.
  const SimTime read_point = sim_.Now() + radical_->config().server.backup_invoke_overhead;
  sim_.Run();
  EXPECT_EQ(result, Value("v1"));
  ASSERT_TRUE(pushed_at.has_value());
  EXPECT_GE(*pushed_at, read_point + Millis(20));
}

PROFILE_TEST(CachePushTest, PushNeverInsertsAnAbsentKey) {
  radical_->RegisterFunction(Fn("vote", {"k"}, {
      Write(In("k"), C(Value(int64_t{1}))),
      Return(C(Value(int64_t{1}))),
  }));
  const size_t items_before = cache(Region::kDE).item_count();
  InvokeAndRun(Region::kCA, "vote", {Value("vote:new")});
  ASSERT_TRUE(radical_->primary().Peek("vote:new").has_value());
  EXPECT_GE(PushesSent(), 1u);
  for (const Region region : DeploymentRegions()) {
    if (region == Region::kCA) {
      continue;  // The writer's own cache holds its speculative install.
    }
    EXPECT_EQ(cache(region).item_count(), items_before) << RegionName(region);
    EXPECT_FALSE(cache(region).Peek("vote:new").has_value()) << RegionName(region);
    EXPECT_EQ(Counter(region, "cache_push_ignored"), 1u) << RegionName(region);
  }
}

PROFILE_TEST(CachePushTest, OlderPushAfterNewerRepairIsIgnored) {
  // Pushes toward DE land a full second late: each read at DE fails
  // validation and its repair installs the value the push carries later.
  for (const Region region : DeploymentRegions()) {
    if (region != Region::kDE) {
      net::DropRule rule;
      rule.kind = net::MessageKind::kCachePush;
      rule.to = radical_->runtime(region).endpoint().id();
      net_.fabric().AddDropRule(rule);
    }
  }
  net_.fabric().InjectDelaySpike(radical_->push_endpoint().id(),
                                 radical_->runtime(Region::kDE).endpoint().id(), Seconds(1),
                                 Seconds(60));
  // Two writes, each followed by a DE read that repairs DE's copy before the
  // write's push arrives; the second read is issued before the first push
  // lands, so that push arrives under the second repair's newer version.
  radical_->Invoke(Region::kCA, "reg_write", {Value("k"), Value("v1")}, [](Value) {});
  sim_.RunFor(Millis(400));
  radical_->Invoke(Region::kDE, "reg_read", {Value("k")}, [](Value) {});
  sim_.RunFor(Millis(300));
  radical_->Invoke(Region::kCA, "reg_write", {Value("k"), Value("v2")}, [](Value) {});
  sim_.RunFor(Millis(250));
  std::optional<Value> second;
  radical_->Invoke(Region::kDE, "reg_read", {Value("k")}, [&](Value v) { second = v; });
  sim_.Run();

  EXPECT_EQ(second, Value("v2"));
  EXPECT_EQ(radical_->server().validations_failed(), 2u);
  EXPECT_EQ(Counter(Region::kDE, "cache_push_applied"), 0u);
  EXPECT_EQ(Counter(Region::kDE, "cache_push_ignored"), 2u);
  const std::optional<Item> de = cache(Region::kDE).Peek("k");
  ASSERT_TRUE(de.has_value());
  EXPECT_EQ(de->value, Value("v2"));
  EXPECT_EQ(de->version, radical_->primary().Peek("k")->version);
}

PROFILE_TEST(CachePushTest, CrashedRuntimeIgnoresPushes) {
  radical_->CrashRuntime(Region::kDE);
  const Version cold = cache(Region::kDE).VersionOf("k");
  InvokeAndRun(Region::kCA, "reg_write", {Value("k"), Value("v1")});
  EXPECT_EQ(cache(Region::kDE).VersionOf("k"), cold);
  EXPECT_EQ(Counter(Region::kDE, "cache_push_applied"), 0u);
  EXPECT_EQ(Counter(Region::kDE, "cache_push_ignored"), 1u);

  // Back up, the runtime takes the next write's push.
  radical_->RecoverRuntime(Region::kDE);
  InvokeAndRun(Region::kCA, "reg_write", {Value("k"), Value("v2")});
  EXPECT_EQ(cache(Region::kDE).VersionOf("k"), radical_->primary().Peek("k")->version);
  EXPECT_EQ(Counter(Region::kDE, "cache_push_applied"), 1u);
}

PROFILE_TEST(CachePushTest, SeedAndWarmCachesSendNoPushes) {
  for (int i = 0; i < 50; ++i) {
    radical_->Seed("seeded:" + std::to_string(i), Value(int64_t{i}));
  }
  radical_->WarmCaches();
  sim_.Run();
  EXPECT_EQ(PushesSent(), 0u);
}

PROFILE_TEST(CachePushTest, FabricCountsPushesPerKind) {
  InvokeAndRun(Region::kCA, "reg_write", {Value("k"), Value("v1")});
  // One push per runtime, named in the fabric's per-kind counters.
  const uint64_t runtimes = DeploymentRegions().size();
  EXPECT_EQ(PushesSent(), runtimes);
  const obs::MetricsScope fabric = net_.fabric().metrics();
  EXPECT_EQ(fabric.Get("kind.cache_push.sent"), runtimes);
  EXPECT_GT(fabric.Get("kind.cache_push.bytes"), 0u);
}

}  // namespace
}  // namespace radical
