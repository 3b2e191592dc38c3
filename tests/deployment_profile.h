// Deployment profiles: the shapes the end-to-end suites run every test
// under. The paper claims linearizability for every deployment shape (§3.6),
// so a fixture that builds a default-config RadicalDeployment derives
// ProfiledTest, takes the profile in its constructor and defines its tests
// with PROFILE_TEST:
//
//   class FooTest : public ProfiledTest {
//    protected:
//     explicit FooTest(const DeploymentProfile& profile) : ProfiledTest(profile) {}
//   };
//   PROFILE_TEST(FooTest, Bar) { ProfiledDeployment radical(profile(), ...); ... }
//
// Each test runs once per profile. The singleton instance keeps the test's
// plain name, FooTest.Bar; every other profile runs as
// Profiles/FooTest.Bar/<profile>. Tests that pin a single-shard fact stay
// plain TEST/TEST_F. Replicated-deployment tests take the shard count itself
// as their TEST_P parameter (ShardsName).

#ifndef RADICAL_TESTS_DEPLOYMENT_PROFILE_H_
#define RADICAL_TESTS_DEPLOYMENT_PROFILE_H_

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/radical/deployment.h"

namespace radical {

struct DeploymentProfile {
  const char* name;
  int shards;  // LviServerOptions::shards (and Raft lock groups).
  // Route every Invoke through a per-region radical::Session (the
  // SwiftCloud-style session path), delivering only the final result.
  bool sessions = false;
};

// `sharded_batched` once also set an admission batch window. Batching is
// gone; the profile keeps its name, so its tests keep theirs, and runs two
// shards, a sharded shape that `sharded` does not cover.
inline constexpr DeploymentProfile kDeploymentProfiles[] = {
    {"singleton", 1},
    {"sharded", 4},
    {"sharded_batched", 2},
    {"sessions", 1, /*sessions=*/true},
};

// Test-name suffix for the replicated-deployment matrix, whose parameter is
// the server's shard count (= Raft lock groups): ".../shards1", ".../shards4".
inline std::string ShardsName(const ::testing::TestParamInfo<int>& info) {
  return "shards" + std::to_string(info.param);
}

// A RadicalDeployment in the profile's shape. The profile's shard count
// replaces the config's; under `sessions`, Invoke submits through
// a lazily opened per-region session and drops previews, so Invoke's
// one-callback contract holds on every profile.
class ProfiledDeployment : public RadicalDeployment {
 public:
  ProfiledDeployment(const DeploymentProfile& profile, Simulator* sim, Network* network,
                     RadicalConfig config, std::vector<Region> regions, int replicated_locks = 0)
      : RadicalDeployment(sim, network, Shaped(std::move(config), profile), std::move(regions),
                          replicated_locks),
        sessions_(profile.sessions) {}

  void Invoke(Region origin, const std::string& function, std::vector<Value> inputs,
              std::function<void(Value)> done) override {
    if (!sessions_) {
      RadicalDeployment::Invoke(origin, function, std::move(inputs), std::move(done));
      return;
    }
    auto it = ambient_sessions_.find(origin);
    if (it == ambient_sessions_.end()) {
      it = ambient_sessions_.emplace(origin, OpenSession(origin)).first;
    }
    it->second.Submit(Request{function, std::move(inputs)},
                      [done = std::move(done)](Outcome outcome) {
                        if (!outcome.preview()) {
                          done(std::move(outcome.result));
                        }
                      });
  }

 private:
  static RadicalConfig Shaped(RadicalConfig config, const DeploymentProfile& profile) {
    config.server.shards = profile.shards;
    return config;
  }

  bool sessions_;
  std::map<Region, Session> ambient_sessions_;
};

// Base fixture of a test that runs once per deployment profile.
class ProfiledTest : public ::testing::Test {
 protected:
  explicit ProfiledTest(const DeploymentProfile& profile) : profile_(profile) {}

  const DeploymentProfile& profile() const { return profile_; }

 private:
  const DeploymentProfile& profile_;  // An element of kDeploymentProfiles.
};

// Registers one test per profile, each built by `make(profile)` and named as
// described at the top of this file. A test with a parameter of its own
// passes that parameter in `name` ("Bar/CA"), plus the instantiation prefix
// and printed value a TEST_P would give it; the singleton instance is then
// named AllRegions/FooTest.Bar/CA like the TEST_P it replaces.
template <typename Fixture, typename Make>
bool RegisterProfileTests(const std::string& suite, const std::string& name, const char* file,
                          int line, Make make, const std::string& singleton_prefix = "",
                          const std::string& value_param = "") {
  for (const DeploymentProfile& profile : kDeploymentProfiles) {
    const bool singleton = std::string_view(profile.name) == "singleton";
    std::string suite_name = "Profiles/" + suite;
    std::string test_name = name + "/" + profile.name;
    if (singleton) {
      suite_name = singleton_prefix.empty() ? suite : singleton_prefix + "/" + suite;
      test_name = name;
    }
    ::testing::RegisterTest(suite_name.c_str(), test_name.c_str(), nullptr,
                            value_param.empty() ? nullptr : value_param.c_str(), file, line,
                            [make, &profile]() -> Fixture* { return make(profile); });
  }
  return true;
}

}  // namespace radical

// Defines test `name` of the ProfiledTest fixture `fixture`, run once per
// deployment profile.
#define PROFILE_TEST(fixture, name)                                                       \
  class fixture##_##name##_ProfileTest final : public fixture {                           \
   public:                                                                                \
    explicit fixture##_##name##_ProfileTest(const ::radical::DeploymentProfile& profile)  \
        : fixture(profile) {}                                                             \
    void TestBody() override;                                                             \
  };                                                                                      \
  [[maybe_unused]] const bool fixture##_##name##_registered =                             \
      ::radical::RegisterProfileTests<fixture>(                                           \
          #fixture, #name, __FILE__, __LINE__,                                            \
          [](const ::radical::DeploymentProfile& profile) -> fixture* {                   \
            return new fixture##_##name##_ProfileTest(profile);                           \
          });                                                                             \
  void fixture##_##name##_ProfileTest::TestBody()

#endif  // RADICAL_TESTS_DEPLOYMENT_PROFILE_H_
