// Analytic latency-model tests, parameterized over every deployment region
// and deployment profile: the simulator's end-to-end latencies must match the
// closed-form expressions the paper's §5.5 component breakdown implies, per
// region.

#include <gtest/gtest.h>

#include <string>
#include <utility>

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

constexpr SimDuration kLongExec = Millis(180);
constexpr SimDuration kShortExec = Millis(15);

// One case (a member function below) in one region on one profile.
class RegionLatencyTest : public ProfiledTest {
 public:
  using Case = void (RegionLatencyTest::*)();

  RegionLatencyTest(const DeploymentProfile& profile, Region region, Case test_case)
      : ProfiledTest(profile),
        region_(region),
        test_case_(test_case),
        sim_(808),
        net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, RadicalConfig{},
                                                    DeploymentRegions());
    radical_->RegisterFunction(Fn("long_fn", {"k"}, {
        Read("v", In("k")),
        Compute(kLongExec),
        Return(V("v")),
    }));
    radical_->RegisterFunction(Fn("short_fn", {"k"}, {
        Read("v", In("k")),
        Compute(kShortExec),
        Return(V("v")),
    }));
    radical_->Seed("k", Value("v"));
    radical_->WarmCaches();
  }

  void TestBody() override { (this->*test_case_)(); }

  void LongFunctionMatchesAnalyticModel() {
    const SimDuration measured = Measure(region_, "long_fn");
    const SimDuration expected = Expected(region_, kLongExec);
    EXPECT_NEAR(ToMillis(measured), ToMillis(expected), 2.0) << RegionName(region_);
  }

  void ShortFunctionMatchesAnalyticModel() {
    const SimDuration measured = Measure(region_, "short_fn");
    const SimDuration expected = Expected(region_, kShortExec);
    EXPECT_NEAR(ToMillis(measured), ToMillis(expected), 2.0) << RegionName(region_);
  }

  void LongFunctionLatencyIsRegionIndependentShortIsNot() {
    // A >RTT function costs the same everywhere (the paper's "consistent
    // regardless of how far users are from the datacenter"); a <RTT function
    // costs the region's lat_nu<->ns.
    const SimDuration here_long = Measure(region_, "long_fn");
    const SimDuration va_long = Measure(Region::kVA, "long_fn");
    EXPECT_NEAR(ToMillis(here_long), ToMillis(va_long), 1.0) << RegionName(region_);
    if (region_ != Region::kVA) {
      const SimDuration here_short = Measure(region_, "short_fn");
      const SimDuration va_short = Measure(Region::kVA, "short_fn");
      EXPECT_GT(here_short, va_short) << RegionName(region_);
    }
  }

 private:
  SimDuration Measure(Region region, const std::string& function) {
    SimDuration latency = 0;
    const SimTime start = sim_.Now();
    radical_->Invoke(region, function, {Value("k")},
                     [&](Value) { latency = sim_.Now() - start; });
    sim_.Run();
    EXPECT_GT(latency, 0);
    return latency;
  }

  // The analytic model: instantiation + f^rw + max(exec, LVI leg) + reply.
  // Fixed overheads measured once from the config.
  SimDuration Expected(Region region, SimDuration exec) {
    const RadicalConfig& config = radical_->config();
    const SimDuration instantiation = config.lambda_invoke + config.blob_load;
    // f^rw: invoke overhead + interpreter steps (sub-ms) + version gather.
    const SimDuration frw =
        config.frw_invoke_overhead + config.cache.read_latency;
    const SimDuration exec_leg = exec + config.cache.read_latency;
    const SimDuration lvi_leg = LviLinkRtt(net_.latency(), region, kPrimaryRegion) +
                                config.server.process_delay +
                                config.primary_store.read_latency;
    return instantiation + frw + std::max(exec_leg, lvi_leg);
  }

  const Region region_;
  const Case test_case_;
  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

// Every case runs in every region on every profile. The singleton instances
// keep the names of the TEST_P they replace: AllRegions/RegionLatencyTest.
// <case>/<region>, with the region as GetParam().
[[maybe_unused]] const bool kRegistered = [] {
  const std::pair<const char*, RegionLatencyTest::Case> cases[] = {
      {"LongFunctionMatchesAnalyticModel", &RegionLatencyTest::LongFunctionMatchesAnalyticModel},
      {"ShortFunctionMatchesAnalyticModel", &RegionLatencyTest::ShortFunctionMatchesAnalyticModel},
      {"LongFunctionLatencyIsRegionIndependentShortIsNot",
       &RegionLatencyTest::LongFunctionLatencyIsRegionIndependentShortIsNot},
  };
  for (const auto& [name, test_case] : cases) {
    for (const Region region : DeploymentRegions()) {
      RegisterProfileTests<RegionLatencyTest>(
          "RegionLatencyTest", std::string(name) + "/" + RegionName(region), __FILE__, __LINE__,
          [region, test_case](const DeploymentProfile& profile) {
            return new RegionLatencyTest(profile, region, test_case);
          },
          "AllRegions", ::testing::PrintToString(region));
    }
  }
  return true;
}();

}  // namespace
}  // namespace radical
