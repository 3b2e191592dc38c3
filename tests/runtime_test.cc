// End-to-end integration tests of the Radical runtime: the LVI fast path,
// write path, validation failure, cache bootstrap, unanalyzable fallback,
// cross-region consistency, ablations, and the baseline deployments.

#include <gtest/gtest.h>

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

class RuntimeTest : public ProfiledTest {
 protected:
  explicit RuntimeTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), sim_(2024), net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, RadicalConfig{},
                                                    DeploymentRegions());
    RegisterTestFunctions(radical_.get());
    SeedKeys(radical_.get());
    radical_->WarmCaches();
  }

  static void RegisterTestFunctions(AppService* service) {
    // 200 ms read-only handler: execution dominates the LVI round trip.
    service->RegisterFunction(Fn("slow_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(200)),
        Return(V("v")),
    }));
    // 20 ms read-only handler: the LVI round trip dominates.
    service->RegisterFunction(Fn("fast_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(20)),
        Return(V("v")),
    }));
    // Writer.
    service->RegisterFunction(Fn("reg_write", {"k", "v"}, {
        Write(In("k"), In("v")),
        Compute(Millis(20)),
        Return(In("v")),
    }));
    // Unanalyzable: the read key goes through an opaque digest.
    service->RegisterFunction(Fn("opaque_read", {"k"}, {
        Read("v", IntToStr(Host("expensive_digest", {In("k")}))),
        Compute(Millis(20)),
        Return(C(Value("opaque-done"))),
    }));
  }

  static void SeedKeys(AppService* service) {
    service->Seed("key1", Value("value1"));
    service->Seed("key2", Value("value2"));
  }

  struct Outcome {
    Value result;
    SimDuration latency = 0;
    bool done = false;
  };

  // Issues one request and runs the simulator until the client is answered
  // (plus trailing protocol work up to `settle`).
  Outcome InvokeAndWait(Region origin, const std::string& function, std::vector<Value> inputs,
                        SimDuration settle = Millis(0)) {
    Outcome outcome;
    const SimTime start = sim_.Now();
    radical_->Invoke(origin, function, std::move(inputs), [&, start](Value v) {
      outcome.result = std::move(v);
      outcome.latency = sim_.Now() - start;
      outcome.done = true;
    });
    sim_.RunFor(Seconds(5));
    if (settle > 0) {
      sim_.RunFor(settle);
    }
    EXPECT_TRUE(outcome.done);
    return outcome;
  }

  static void ExpectBetweenMs(SimDuration d, double lo, double hi) {
    EXPECT_GE(ToMillis(d), lo);
    EXPECT_LE(ToMillis(d), hi);
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(RuntimeTest, SpeculativeReadReturnsCorrectValue) {
  const Outcome outcome = InvokeAndWait(Region::kCA, "slow_read", {Value("key1")});
  EXPECT_EQ(outcome.result, Value("value1"));
  EXPECT_EQ(radical_->server().validations_succeeded(), 1u);
  EXPECT_EQ(radical_->runtime(Region::kCA).counters().Get("validated_speculative"), 1u);
}

PROFILE_TEST(RuntimeTest, LongFunctionLatencyHidesLviRoundTrip) {
  // invoke(12) + blob(2) + f^rw(~1) + cache versions(1) + max(exec ~201,
  // LVI ~77) + reply: the LVI request is fully hidden behind execution.
  const Outcome outcome = InvokeAndWait(Region::kCA, "slow_read", {Value("key1")});
  ExpectBetweenMs(outcome.latency, 212, 222);
}

PROFILE_TEST(RuntimeTest, ShortFunctionLatencyIsBoundedByLviRoundTrip) {
  // From Tokyo the LVI round trip (146 ms) dominates the 21 ms execution.
  const Outcome outcome = InvokeAndWait(Region::kJP, "fast_read", {Value("key1")});
  ExpectBetweenMs(outcome.latency, 158, 172);
}

PROFILE_TEST(RuntimeTest, RadicalInVaStillWorksWithSmallOverhead) {
  const Outcome outcome = InvokeAndWait(Region::kVA, "fast_read", {Value("key1")});
  // LVI link in VA is only 7 ms; execution 21 ms dominates.
  ExpectBetweenMs(outcome.latency, 33, 45);
}

PROFILE_TEST(RuntimeTest, WritePropagatesToPrimaryViaFollowup) {
  const Outcome outcome =
      InvokeAndWait(Region::kCA, "reg_write", {Value("key1"), Value("updated")},
                    /*settle=*/Seconds(2));
  EXPECT_EQ(outcome.result, Value("updated"));
  // Followup applied: primary holds the speculative write at version 2.
  EXPECT_EQ(radical_->primary().Peek("key1")->value, Value("updated"));
  EXPECT_EQ(radical_->primary().VersionOf("key1"), 2);
  // The writer's own cache agrees exactly.
  EXPECT_EQ(radical_->runtime(Region::kCA).cache().Peek("key1")->value, Value("updated"));
  EXPECT_EQ(radical_->runtime(Region::kCA).cache().VersionOf("key1"), 2);
  EXPECT_EQ(radical_->server().counters().Get("followup_applied"), 1u);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(RuntimeTest, WriteLatencyDoesNotWaitForFollowup) {
  // The client is answered after max(exec, LVI) — the followup ships later.
  const Outcome outcome =
      InvokeAndWait(Region::kJP, "reg_write", {Value("key1"), Value("x")}, Seconds(2));
  // LVI leg from JP ~146 + server work; execution only ~20.
  ExpectBetweenMs(outcome.latency, 160, 180);
}

PROFILE_TEST(RuntimeTest, StaleCacheFailsValidationAndRepairs) {
  // Make JP's cached copy stale.
  radical_->runtime(Region::kJP).cache().Install("key1", Value("stale"), 0);
  const Outcome outcome = InvokeAndWait(Region::kJP, "slow_read", {Value("key1")});
  // The backup execution's (correct) result is returned.
  EXPECT_EQ(outcome.result, Value("value1"));
  EXPECT_EQ(radical_->server().validations_failed(), 1u);
  // And the cache was repaired to the primary's version.
  EXPECT_EQ(radical_->runtime(Region::kJP).cache().Peek("key1")->value, Value("value1"));
  EXPECT_EQ(radical_->runtime(Region::kJP).cache().VersionOf("key1"), 1);
  // Latency: RTT + backup execution, comparable to the baseline.
  ExpectBetweenMs(outcome.latency, 360, 420);
}

PROFILE_TEST(RuntimeTest, SecondRequestAfterRepairValidates) {
  radical_->runtime(Region::kJP).cache().Install("key1", Value("stale"), 0);
  InvokeAndWait(Region::kJP, "slow_read", {Value("key1")});
  const Outcome second = InvokeAndWait(Region::kJP, "slow_read", {Value("key1")});
  EXPECT_EQ(second.result, Value("value1"));
  EXPECT_EQ(radical_->server().validations_succeeded(), 1u);
  ExpectBetweenMs(second.latency, 212, 222);
}

PROFILE_TEST(RuntimeTest, CacheMissSkipsSpeculationAndBootstraps) {
  radical_->runtime(Region::kDE).cache().Clear();
  const Outcome outcome = InvokeAndWait(Region::kDE, "slow_read", {Value("key1")});
  EXPECT_EQ(outcome.result, Value("value1"));
  EXPECT_EQ(radical_->runtime(Region::kDE).counters().Get("spec_skipped_miss"), 1u);
  // The response repopulated the cache: the next request speculates.
  const Outcome second = InvokeAndWait(Region::kDE, "slow_read", {Value("key1")});
  EXPECT_EQ(radical_->runtime(Region::kDE).counters().Get("validated_speculative"), 1u);
  ExpectBetweenMs(second.latency, 212, 222);
}

PROFILE_TEST(RuntimeTest, UnanalyzableFunctionRunsNearStorage) {
  const Outcome outcome = InvokeAndWait(Region::kCA, "opaque_read", {Value("whatever")});
  EXPECT_EQ(outcome.result, Value("opaque-done"));
  EXPECT_EQ(radical_->runtime(Region::kCA).counters().Get("direct_unanalyzable"), 1u);
  EXPECT_EQ(radical_->server().counters().Get("direct_requests"), 1u);
  // Pays the WAN round trip plus the near-storage execution (which includes
  // the 50 ms opaque digest itself).
  ExpectBetweenMs(outcome.latency, 160, 190);
}

PROFILE_TEST(RuntimeTest, CrossRegionReadSeesCommittedWrite) {
  // CA writes; once the followup applies, a JP read must return the new
  // value (its stale cache fails validation).
  InvokeAndWait(Region::kCA, "reg_write", {Value("key1"), Value("from-CA")}, Seconds(2));
  const Outcome read = InvokeAndWait(Region::kJP, "slow_read", {Value("key1")});
  EXPECT_EQ(read.result, Value("from-CA"));
}

PROFILE_TEST(RuntimeTest, NewKeyWriteValidatesWhenAbsentEverywhere) {
  // Writing a brand-new key: cache and primary both report "missing", so
  // validation succeeds and the write commits speculatively.
  const Outcome outcome =
      InvokeAndWait(Region::kIE, "reg_write", {Value("brand-new"), Value("v0")}, Seconds(2));
  EXPECT_EQ(outcome.result, Value("v0"));
  EXPECT_EQ(radical_->server().validations_succeeded(), 1u);
  EXPECT_EQ(radical_->primary().Peek("brand-new")->value, Value("v0"));
}

PROFILE_TEST(RuntimeTest, ConcurrentWritersBothLandExactlyOnce) {
  // Two regions write the same key concurrently: locks serialize them; the
  // second validates against the moved version and runs near storage.
  int done = 0;
  radical_->Invoke(Region::kCA, "reg_write", {Value("key2"), Value("A")},
                   [&](Value) { ++done; });
  radical_->Invoke(Region::kDE, "reg_write", {Value("key2"), Value("B")},
                   [&](Value) { ++done; });
  sim_.RunFor(Seconds(10));
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(radical_->server().idle());
  // Exactly two committed writes: version went 1 -> 3.
  EXPECT_EQ(radical_->primary().VersionOf("key2"), 3);
  const Value final_value = radical_->primary().Peek("key2")->value;
  EXPECT_TRUE(final_value == Value("A") || final_value == Value("B"));
}

// --- Ablations ---------------------------------------------------------------

PROFILE_TEST(RuntimeTest, NoSpeculationAblationPaysExecutionAfterLvi) {
  RadicalConfig config;
  config.speculation_enabled = false;
  ProfiledDeployment no_spec(profile(), &sim_, &net_, config, {Region::kCA});
  RegisterTestFunctions(&no_spec);
  SeedKeys(&no_spec);
  no_spec.WarmCaches();
  Outcome outcome;
  const SimTime start = sim_.Now();
  no_spec.Invoke(Region::kCA, "slow_read", {Value("key1")}, [&](Value v) {
    outcome.result = std::move(v);
    outcome.latency = sim_.Now() - start;
    outcome.done = true;
  });
  sim_.RunFor(Seconds(5));
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.result, Value("value1"));
  // LVI (~77) and execution (~201) now run in sequence: ~292 vs ~216.
  ExpectBetweenMs(outcome.latency, 280, 310);
}

// --- Baselines ------------------------------------------------------------------

PROFILE_TEST(RuntimeTest, PrimaryBaselinePaysWanOnEveryRequest) {
  PrimaryBaselineDeployment baseline(&sim_, &net_, RadicalConfig{});
  RegisterTestFunctions(&baseline);
  SeedKeys(&baseline);
  Outcome outcome;
  const SimTime start = sim_.Now();
  baseline.Invoke(Region::kCA, "slow_read", {Value("key1")}, [&](Value v) {
    outcome.result = std::move(v);
    outcome.latency = sim_.Now() - start;
    outcome.done = true;
  });
  sim_.RunFor(Seconds(5));
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.result, Value("value1"));
  // WAN RTT (69) + invoke (14) + execution (~201).
  ExpectBetweenMs(outcome.latency, 278, 295);
}

PROFILE_TEST(RuntimeTest, IdealBaselineIsJustInvokePlusExecution) {
  LocalIdealDeployment ideal(&sim_, RadicalConfig{}, DeploymentRegions());
  RegisterTestFunctions(&ideal);
  SeedKeys(&ideal);
  Outcome outcome;
  const SimTime start = sim_.Now();
  ideal.Invoke(Region::kJP, "slow_read", {Value("key1")}, [&](Value v) {
    outcome.result = std::move(v);
    outcome.latency = sim_.Now() - start;
    outcome.done = true;
  });
  sim_.RunFor(Seconds(5));
  ASSERT_TRUE(outcome.done);
  ExpectBetweenMs(outcome.latency, 213, 218);
}

PROFILE_TEST(RuntimeTest, RadicalBeatsBaselineAndApproachesIdealFarFromPrimary) {
  // The paper's headline ordering for a long function far from the primary:
  // ideal <= radical << baseline.
  PrimaryBaselineDeployment baseline(&sim_, &net_, RadicalConfig{});
  RegisterTestFunctions(&baseline);
  SeedKeys(&baseline);
  LocalIdealDeployment ideal(&sim_, RadicalConfig{}, DeploymentRegions());
  RegisterTestFunctions(&ideal);
  SeedKeys(&ideal);

  const Outcome radical_out = InvokeAndWait(Region::kJP, "slow_read", {Value("key1")});
  SimDuration baseline_latency = 0;
  SimDuration ideal_latency = 0;
  SimTime start = sim_.Now();
  baseline.Invoke(Region::kJP, "slow_read", {Value("key1")},
                  [&, start](Value) { baseline_latency = sim_.Now() - start; });
  sim_.RunFor(Seconds(5));
  start = sim_.Now();
  ideal.Invoke(Region::kJP, "slow_read", {Value("key1")},
               [&, start](Value) { ideal_latency = sim_.Now() - start; });
  sim_.RunFor(Seconds(5));

  EXPECT_LT(radical_out.latency, baseline_latency - Millis(100));
  EXPECT_LT(ideal_latency, radical_out.latency);
  // Radical achieves most of the possible improvement.
  const double achieved =
      static_cast<double>(baseline_latency - radical_out.latency) /
      static_cast<double>(baseline_latency - ideal_latency);
  EXPECT_GT(achieved, 0.8);
}

}  // namespace
}  // namespace radical
