// Blind writes end to end: a key a function writes but never reads is not
// compared at validation. The primary pins it at its own version, the
// validated reply carries that version when the cache's differs, and the
// writer's cache installs its speculative write where the primary applies
// it. A key the function reads before writing is still validated.

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

class BlindWriteTest : public ProfiledTest {
 protected:
  explicit BlindWriteTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), sim_(11), net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
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
    radical_->RegisterFunction(Fn("rmw_write", {"k", "v"}, {
        Read("old", In("k")),
        Write(In("k"), In("v")),
        Compute(Millis(20)),
        Return(In("v")),
    }));
    radical_->Seed("k", Value("v0"));
    radical_->WarmCaches();
  }

  Value InvokeAndRun(Region origin, const std::string& function, std::vector<Value> inputs) {
    std::optional<Value> result;
    radical_->Invoke(origin, function, std::move(inputs), [&](Value v) { result = std::move(v); });
    sim_.Run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(Value());
  }

  // Moves `key` on at the primary without telling any cache.
  void MovePrimary(const Key& key, int times) {
    for (int i = 0; i < times; ++i) {
      radical_->primary().Put(key, Value("moved"), nullptr);
    }
  }

  // Keeps `region`'s cache to what its own requests install: drops every
  // cache push toward its runtime.
  void DropCachePushesTo(Region region) {
    net::DropRule rule;
    rule.kind = net::MessageKind::kCachePush;
    rule.to = radical_->runtime(region).endpoint().id();
    net_.fabric().AddDropRule(rule);
  }

  CacheStore& cache(Region region) { return radical_->runtime(region).cache(); }
  uint64_t ServerCount(const char* name) { return radical_->server().counters().Get(name); }

  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(BlindWriteTest, BlindWriteOfAKeyTheCacheLacksValidatesWithoutABackup) {
  DropCachePushesTo(Region::kCA);
  MovePrimary("vote:1", 2);  // Version 2 at the primary; absent from every cache.
  ASSERT_FALSE(cache(Region::kCA).Peek("vote:1").has_value());

  std::optional<Value> result;
  Version installed = kMissingVersion;  // CA's copy when the client is answered.
  radical_->Invoke(Region::kCA, "reg_write", {Value("vote:1"), Value("up")}, [&](Value v) {
    result = std::move(v);
    installed = cache(Region::kCA).VersionOf("vote:1");
  });
  sim_.Run();
  EXPECT_EQ(result, Value("up"));
  EXPECT_EQ(installed, 3);
  EXPECT_EQ(radical_->server().validations_failed(), 0u);
  EXPECT_EQ(radical_->server().validations_succeeded(), 1u);
  EXPECT_EQ(ServerCount("blind_repinned"), 1u);
  EXPECT_EQ(radical_->server().reexecutions(), 0u);
  EXPECT_EQ(radical_->primary().VersionOf("vote:1"), 3);
  EXPECT_EQ(radical_->primary().Peek("vote:1")->value, Value("up"));
  const std::optional<Item> cached = cache(Region::kCA).Peek("vote:1");
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->version, 3);
  EXPECT_EQ(cached->value, Value("up"));

  // CA's next read of the key validates against its own install.
  EXPECT_EQ(InvokeAndRun(Region::kCA, "reg_read", {Value("vote:1")}), Value("up"));
  EXPECT_EQ(radical_->server().validations_failed(), 0u);
  EXPECT_EQ(radical_->server().validations_succeeded(), 2u);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(BlindWriteTest, BlindWriteOverAStaleCopyInstallsAtThePrimarysNextVersion) {
  DropCachePushesTo(Region::kCA);
  MovePrimary("k", 1);  // Version 2; every cache holds version 1.
  EXPECT_EQ(InvokeAndRun(Region::kCA, "reg_write", {Value("k"), Value("v1")}), Value("v1"));
  EXPECT_EQ(radical_->server().validations_failed(), 0u);
  EXPECT_EQ(ServerCount("blind_repinned"), 1u);
  EXPECT_EQ(radical_->primary().VersionOf("k"), 3);
  EXPECT_EQ(cache(Region::kCA).VersionOf("k"), 3);

  // A blind write over an up-to-date copy needs no repin.
  EXPECT_EQ(InvokeAndRun(Region::kCA, "reg_write", {Value("k"), Value("v2")}), Value("v2"));
  EXPECT_EQ(radical_->server().validations_failed(), 0u);
  EXPECT_EQ(ServerCount("blind_repinned"), 1u);
  EXPECT_EQ(radical_->primary().VersionOf("k"), 4);
  EXPECT_EQ(cache(Region::kCA).VersionOf("k"), 4);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(BlindWriteTest, ReadThenWriteOfAStaleKeyStillFailsValidationAndRunsTheBackup) {
  MovePrimary("k", 1);  // Version 2; CA's cache holds version 1.
  EXPECT_EQ(InvokeAndRun(Region::kCA, "rmw_write", {Value("k"), Value("v1")}), Value("v1"));
  EXPECT_EQ(radical_->server().validations_failed(), 1u);
  EXPECT_EQ(radical_->server().validations_succeeded(), 0u);
  EXPECT_EQ(ServerCount("blind_repinned"), 0u);
  EXPECT_EQ(radical_->primary().VersionOf("k"), 3);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
  // The backup's reply repaired CA's copy.
  EXPECT_EQ(cache(Region::kCA).VersionOf("k"), 3);
  EXPECT_EQ(cache(Region::kCA).Peek("k")->value, Value("v1"));
  EXPECT_TRUE(radical_->server().idle());
}

}  // namespace
}  // namespace radical
