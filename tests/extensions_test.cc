// Tests for the paper's extension features: external services with
// at-most-once semantics (§3.5), persistent caches (§3.2), developer-provided
// f^rw (§7), and the full deployment on replicated locks (§5.6). Batched
// replicated lock acquisition (§5.6 future work), the lock service's only
// path, is tested in replicated_locks_test.cc.

#include <gtest/gtest.h>

#include "src/func/builder.h"
#include "src/lvi/lock_service.h"
#include "src/radical/deployment.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

NetworkOptions NoJitter() {
  NetworkOptions options;
  options.jitter_stddev_frac = 0.0;
  return options;
}

// --- External services (§3.5) ----------------------------------------------------

class ExternalServiceTest : public ::testing::Test {
 protected:
  ExternalServiceTest() : interp_(&HostRegistry::Standard()) {
    payments_ = externals_.Register(
        "payments",
        [this](const Value& request) -> Value {
          ++charges_;
          return Value("receipt-for-" + request.ToString());
        },
        Millis(40));
  }

  ExternalServiceRegistry externals_;
  ExternalService* payments_ = nullptr;
  int charges_ = 0;
  Interpreter interp_;
  VersionedStore store_;
};

TEST_F(ExternalServiceTest, CallExecutesAndReturnsResponse) {
  const FunctionDef fn = Fn("pay", {"amount"}, {
      External("receipt", "payments", In("amount")),
      Return(V("receipt")),
  });
  const ExecEnv env{42, &externals_};
  const ExecResult result = interp_.Execute(fn, {Value("$5")}, &store_, {}, &env);
  ASSERT_TRUE(result.ok()) << result.status.message();
  EXPECT_EQ(result.return_value, Value("receipt-for-\"$5\""));
  EXPECT_EQ(charges_, 1);
  EXPECT_GE(result.elapsed, Millis(40));
}

TEST_F(ExternalServiceTest, ReExecutionWithSameIdDeduplicates) {
  // The double-execution scenario of §3.5: the same request runs twice
  // (speculatively and as deterministic re-execution). Same execution id ->
  // same idempotency key -> the payment happens once.
  const FunctionDef fn = Fn("pay", {"amount"}, {
      External("receipt", "payments", In("amount")),
      Return(V("receipt")),
  });
  const ExecEnv env{42, &externals_};
  const ExecResult first = interp_.Execute(fn, {Value("$9")}, &store_, {}, &env);
  const ExecResult second = interp_.Execute(fn, {Value("$9")}, &store_, {}, &env);
  EXPECT_EQ(charges_, 1);  // Charged once.
  EXPECT_EQ(first.return_value, second.return_value);  // Same receipt replayed.
  EXPECT_EQ(payments_->calls(), 2u);
  EXPECT_EQ(payments_->executions(), 1u);
}

TEST_F(ExternalServiceTest, DifferentExecutionsChargeSeparately) {
  const FunctionDef fn = Fn("pay", {"amount"}, {
      External("receipt", "payments", In("amount")),
      Return(V("receipt")),
  });
  const ExecEnv env_a{1, &externals_};
  const ExecEnv env_b{2, &externals_};
  interp_.Execute(fn, {Value("$1")}, &store_, {}, &env_a);
  interp_.Execute(fn, {Value("$1")}, &store_, {}, &env_b);
  EXPECT_EQ(charges_, 2);
}

TEST_F(ExternalServiceTest, MultipleCallsInOneExecutionGetDistinctKeys) {
  const FunctionDef fn = Fn("pay_twice", {"a"}, {
      External("r1", "payments", In("a")),
      External("r2", "payments", In("a")),
      Return(V("r2")),
  });
  const ExecEnv env{7, &externals_};
  interp_.Execute(fn, {Value("$3")}, &store_, {}, &env);
  EXPECT_EQ(charges_, 2);  // Two distinct calls, two charges.
  // Re-execution replays both.
  interp_.Execute(fn, {Value("$3")}, &store_, {}, &env);
  EXPECT_EQ(charges_, 2);
}

TEST_F(ExternalServiceTest, MissingRegistryOrServiceFails) {
  const FunctionDef fn = Fn("pay", {}, {External("r", "payments", C(Value("x")))});
  const ExecResult no_env = interp_.Execute(fn, {}, &store_);
  EXPECT_FALSE(no_env.ok());
  const FunctionDef unknown = Fn("oops", {}, {External("r", "nonexistent", C(Value("x")))});
  const ExecEnv env{1, &externals_};
  const ExecResult bad = interp_.Execute(unknown, {}, &store_, {}, &env);
  EXPECT_FALSE(bad.ok());
}

TEST_F(ExternalServiceTest, KeyDependingOnResponseIsUnanalyzable) {
  Analyzer analyzer(&HostRegistry::Standard());
  const FunctionDef fn = Fn("f", {}, {
      External("token", "payments", C(Value("x"))),
      Read("v", V("token")),
      Return(V("v")),
  });
  const AnalyzedFunction analyzed = analyzer.Analyze(fn);
  EXPECT_FALSE(analyzed.analyzable);
  EXPECT_NE(analyzed.failure_reason.find("external"), std::string::npos);
}

TEST_F(ExternalServiceTest, ExternalCallsAreSlicedOutOfFrw) {
  Analyzer analyzer(&HostRegistry::Standard());
  const FunctionDef fn = Fn("f", {"u"}, {
      External("receipt", "payments", In("u")),
      Write(Cat({C("receipt:"), In("u")}), V("receipt")),
      Return(V("receipt")),
  });
  const AnalyzedFunction analyzed = analyzer.Analyze(fn);
  ASSERT_TRUE(analyzed.analyzable) << analyzed.failure_reason;
  // f^rw must not charge anyone: running the prediction performs no call.
  Interpreter interp(&HostRegistry::Standard());
  CacheStore cache;
  const RwPrediction prediction = PredictRwSet(analyzed, {Value("ada")}, &cache, interp);
  ASSERT_TRUE(prediction.ok());
  EXPECT_EQ(charges_, 0);
  EXPECT_EQ(prediction.rw.writes.count("receipt:ada"), 1u);
}

TEST_F(ExternalServiceTest, EndToEndPaymentChargedOnceDespiteLostFollowup) {
  // A "charge then record" handler whose followup is lost: the client gets
  // the receipt, re-execution persists the record, and the card is charged
  // exactly once — the full §3.5 story through the whole system.
  Simulator sim(808);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalConfig config;
  config.server.intent_timeout = Millis(500);
  RadicalDeployment radical(&sim, &net, config, {Region::kCA});
  int live_charges = 0;
  radical.externals().Register(
      "payments",
      [&live_charges](const Value& request) -> Value {
        ++live_charges;
        return Value("receipt:" + request.AsString());
      },
      Millis(40));
  radical.RegisterFunction(Fn("charge_and_record", {"user", "amount"}, {
      External("receipt", "payments", In("amount")),
      Write(Cat({C("order:"), In("user")}), V("receipt")),
      Compute(Millis(20)),
      Return(V("receipt")),
  }));
  radical.WarmCaches();
  net::DropRule lost_followup;
  lost_followup.kind = net::MessageKind::kWriteFollowup;
  lost_followup.from = radical.runtime(Region::kCA).endpoint().id();
  net.fabric().AddDropRule(lost_followup);
  Value receipt;
  radical.Invoke(Region::kCA, "charge_and_record", {Value("ada"), Value("$12")},
                 [&](Value v) { receipt = std::move(v); });
  sim.Run();
  EXPECT_EQ(receipt, Value("receipt:$12"));
  // Re-execution happened...
  EXPECT_EQ(radical.server().reexecutions(), 1u);
  // ...the order record reached the primary with the same receipt...
  EXPECT_EQ(radical.primary().Peek("order:ada")->value, Value("receipt:$12"));
  // ...and the card was charged exactly once.
  EXPECT_EQ(live_charges, 1);
}

// --- Persistent caches (§3.2) ------------------------------------------------------

TEST(CachePersistenceTest, PersistentCacheSurvivesRestart) {
  CacheStoreOptions options;
  options.persistent = true;
  CacheStore cache(options);
  cache.Install("k", Value("v"), 3);
  EXPECT_EQ(cache.CrashRestart(), 1u);
  EXPECT_EQ(cache.VersionOf("k"), 3);
}

TEST(CachePersistenceTest, VolatileCacheLosesEverything) {
  CacheStoreOptions options;
  options.persistent = false;
  CacheStore cache(options);
  cache.Install("k", Value("v"), 3);
  EXPECT_EQ(cache.CrashRestart(), 0u);
  EXPECT_EQ(cache.VersionOf("k"), kMissingVersion);
}

TEST(CachePersistenceTest, PersistentCacheSkipsBootstrapPenalty) {
  Simulator sim(909);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalDeployment radical(&sim, &net, RadicalConfig{}, {Region::kDE});
  radical.RegisterFunction(Fn("reg_read", {"k"}, {
      Read("v", In("k")),
      Compute(Millis(100)),
      Return(V("v")),
  }));
  radical.Seed("k", Value("v"));
  radical.WarmCaches();
  // Restart the (persistent-by-default) cache: the next request still
  // speculates — no bootstrap penalty.
  radical.runtime(Region::kDE).cache().CrashRestart();
  SimTime start = sim.Now();
  SimDuration warm_latency = 0;
  radical.Invoke(Region::kDE, "reg_read", {Value("k")},
                 [&](Value) { warm_latency = sim.Now() - start; });
  sim.Run();
  EXPECT_EQ(radical.runtime(Region::kDE).counters().Get("validated_speculative"), 1u);
  EXPECT_LT(ToMillis(warm_latency), 130.0);  // Execution-bound, not RTT+exec.
}

// --- Developer-provided f^rw (§7) ----------------------------------------------------

TEST(ManualFrwTest, ManualRwSetEnablesFastPathForUnanalyzableFunction) {
  Simulator sim(1010);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalDeployment radical(&sim, &net, RadicalConfig{}, {Region::kCA});
  // The key derivation goes through an opaque digest, so the analyzer gives
  // up — but the developer knows the digest of "ada" and provides f^rw.
  const FunctionDef fn = Fn("opaque_fn", {"u"}, {
      Let("k", Cat({C("d:"), IntToStr(Host("expensive_digest", {In("u")}))})),
      Read("v", V("k")),
      Compute(Millis(150)),
      Return(V("v")),
  });
  EXPECT_FALSE(radical.RegisterFunction(fn).analyzable);
  const FunctionDef manual_frw = Fn("opaque_fn^rw", {"u"}, {
      // The developer-maintained mirror of the digest's key derivation.
      Read("v", Cat({C("d:"), IntToStr(Host("expensive_digest", {In("u")}))})),
  });
  const AnalyzedFunction& manual =
      radical.registry().RegisterWithManualRw(fn, manual_frw);
  EXPECT_TRUE(manual.analyzable);
  EXPECT_TRUE(manual.manually_provided);
  // Seed the digest-derived key so validation matches.
  Interpreter interp(&HostRegistry::Standard());
  VersionedStore scratch;
  const ExecResult key_probe = interp.Execute(manual_frw, {Value("ada")}, &scratch);
  ASSERT_TRUE(key_probe.ok());
  const Key derived_key = key_probe.reads.front();
  radical.Seed(derived_key, Value("found-it"));
  radical.WarmCaches();

  SimTime start = sim.Now();
  Value result;
  SimDuration latency = 0;
  radical.Invoke(Region::kCA, "opaque_fn", {Value("ada")}, [&](Value v) {
    result = std::move(v);
    latency = sim.Now() - start;
  });
  sim.Run();
  EXPECT_EQ(result, Value("found-it"));
  // Fast path: speculation + single LVI request, not the direct fallback.
  EXPECT_EQ(radical.runtime(Region::kCA).counters().Get("validated_speculative"), 1u);
  EXPECT_EQ(radical.runtime(Region::kCA).counters().Get("direct_unanalyzable"), 0u);
  // Note: this manual f^rw re-runs the expensive digest (50 ms) on the
  // critical path — exactly the §3.3/§7 latency caveat.
  EXPECT_LT(ToMillis(latency), 280.0);
}

// --- Full deployment on replicated locks (§5.6 configuration) -------------------

// Parameter: the server's shard count, hence the number of Raft lock groups.
class ReplicatedDeploymentTest : public ::testing::TestWithParam<int> {
 protected:
  static RadicalConfig Config() {
    RadicalConfig config;
    config.server.shards = GetParam();
    return config;
  }
};

TEST_P(ReplicatedDeploymentTest, EndToEndWriteThroughRaftLocks) {
  Simulator sim(2222);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalDeployment radical(&sim, &net, Config(), {Region::kCA, Region::kJP},
                            /*replicated_locks=*/3);
  radical.RegisterFunction(Fn("reg_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Compute(Millis(30)),
      Return(In("v")),
  }));
  radical.RegisterFunction(Fn("reg_read", {"k"}, {
      Read("v", In("k")),
      Compute(Millis(30)),
      Return(V("v")),
  }));
  radical.Seed("k", Value("v0"));
  radical.WarmCaches();
  // Raft heartbeats never drain the event queue: drive with bounded runs.
  Value write_result;
  radical.Invoke(Region::kCA, "reg_write", {Value("k"), Value("v1")},
                 [&](Value v) { write_result = std::move(v); });
  sim.RunFor(Seconds(5));
  EXPECT_EQ(write_result, Value("v1"));
  EXPECT_EQ(radical.primary().Peek("k")->value, Value("v1"));
  EXPECT_EQ(radical.primary().VersionOf("k"), 2);
  // Locks lived in the Raft state machine and are released again.
  const LockStateMachine* locks =
      radical.locks().LeaderState(radical.locks().router().ShardOf("k"));
  ASSERT_NE(locks, nullptr);
  EXPECT_EQ(locks->HeldKeyCount(0), 0u);
  // A cross-region read sees the write.
  Value read_result;
  radical.Invoke(Region::kJP, "reg_read", {Value("k")},
                 [&](Value v) { read_result = std::move(v); });
  sim.RunFor(Seconds(5));
  EXPECT_EQ(read_result, Value("v1"));
  EXPECT_TRUE(radical.server().idle());
}

TEST_P(ReplicatedDeploymentTest, LatencyIncludesRaftLockCommit) {
  // §5.6: when validation fails, end-to-end latency grows by the 3 + 2.3*L
  // replicated-lock cost. Compare a validation-failure read against the same
  // request on the singleton server.
  auto measure = [](int replicated_nodes) {
    Simulator sim(3333);
    Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
    RadicalDeployment radical(&sim, &net, Config(), {Region::kCA}, replicated_nodes);
    radical.RegisterFunction(Fn("reg_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(30)),
        Return(V("v")),
    }));
    radical.Seed("k", Value("v0"));
    radical.WarmCaches();
    // Make the cache stale so the request takes the validation-failure path.
    radical.runtime(Region::kCA).cache().Install("k", Value("stale"), 0);
    const SimTime start = sim.Now();
    SimDuration latency = 0;
    radical.Invoke(Region::kCA, "reg_read", {Value("k")},
                   [&](Value) { latency = sim.Now() - start; });
    sim.RunFor(Seconds(5));
    return latency;
  };
  const SimDuration singleton = measure(0);
  const SimDuration replicated = measure(3);
  const double added = ToMillis(replicated - singleton);
  // One read lock through Raft: ~2.3 ms (no idempotency key on this
  // read-only path; §5.6's +3 ms applies to write intents).
  EXPECT_GT(added, 1.0);
  EXPECT_LT(added, 6.0);
}

INSTANTIATE_TEST_SUITE_P(Shards, ReplicatedDeploymentTest, ::testing::Values(1, 4), ShardsName);

}  // namespace
}  // namespace radical
