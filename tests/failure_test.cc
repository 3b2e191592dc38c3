// Failure-injection tests: lost write followups, late followups, cache loss,
// and linearizability under failures — the scenarios write intents and
// deterministic re-execution exist for (§3.4, §3.6).

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "src/check/linearizability.h"
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

class FailureTest : public ProfiledTest {
 protected:
  explicit FailureTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), sim_(31337), net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
    RadicalConfig config;
    config.server.intent_timeout = Millis(500);
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, config,
                                                    DeploymentRegions());
    radical_->RegisterFunction(Fn("reg_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(25)),
        Return(V("v")),
    }));
    radical_->RegisterFunction(Fn("reg_write", {"k", "v"}, {
        Write(In("k"), In("v")),
        Compute(Millis(25)),
        Return(In("v")),
    }));
    // Reads the key it overwrites: a stale cached copy fails validation (a
    // blind write's cached version is never compared).
    radical_->RegisterFunction(Fn("rmw_write", {"k", "v"}, {
        Read("old", In("k")),
        Write(In("k"), In("v")),
        Compute(Millis(25)),
        Return(In("v")),
    }));
    radical_->Seed("k", Value("v0"));
    radical_->WarmCaches();
  }

  // Installs a fabric rule dropping every write followup sent by `region`'s
  // runtime — the unified way to lose followups in flight.
  int DropFollowupsFrom(Region region) {
    net::DropRule rule;
    rule.kind = net::MessageKind::kWriteFollowup;
    rule.from = radical_->runtime(region).endpoint().id();
    return net_.fabric().AddDropRule(rule);
  }

  // Keys locked by anyone, across every shard's lock table.
  size_t HeldLocks() {
    LockService* locks = &radical_->locks();
    size_t held = 0;
    for (int shard = 0; shard < locks->shards(); ++shard) {
      held += locks->table(shard).active_lock_count();
    }
    return held;
  }

  // Steps until `started` holds — an execution at the primary has begun its
  // invoke overhead — then runs into the middle of its 25 ms compute: past
  // the read point, short of the write.
  void RunIntoCompute(const std::function<bool()>& started) {
    while (!started() && sim_.Step()) {
    }
    sim_.RunFor(radical_->config().server.backup_invoke_overhead + Millis(10));
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(FailureTest, DroppedFollowupIsRecoveredByReExecution) {
  const int rule = DropFollowupsFrom(Region::kCA);
  Value result;
  radical_->Invoke(Region::kCA, "reg_write", {Value("k"), Value("v1")},
                   [&](Value v) { result = std::move(v); });
  sim_.Run();
  // The client was answered from speculation...
  EXPECT_EQ(result, Value("v1"));
  EXPECT_EQ(net_.fabric().RuleDrops(rule), 1u);
  EXPECT_EQ(net_.fabric().drops_of(net::MessageKind::kWriteFollowup), 1u);
  // ...and the intent timer re-executed the function near storage, applying
  // the identical write exactly once.
  EXPECT_EQ(radical_->server().reexecutions(), 1u);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(FailureTest, ReadAfterDroppedFollowupStillSeesTheWrite) {
  DropFollowupsFrom(Region::kCA);
  bool write_done = false;
  radical_->Invoke(Region::kCA, "reg_write", {Value("k"), Value("v1")},
                   [&](Value) { write_done = true; });
  sim_.Run();  // Write replied; re-execution completed.
  ASSERT_TRUE(write_done);
  // A JP read must observe v1 (linearizability survived the failure).
  Value read_result;
  radical_->Invoke(Region::kJP, "reg_read", {Value("k")},
                   [&](Value v) { read_result = std::move(v); });
  sim_.Run();
  EXPECT_EQ(read_result, Value("v1"));
}

PROFILE_TEST(FailureTest, WaitingWriterUnblocksAfterReExecution) {
  // CA's followup is lost while DE is queued on the same write lock: DE must
  // proceed after the intent timer resolves CA's execution.
  DropFollowupsFrom(Region::kCA);
  int done = 0;
  radical_->Invoke(Region::kCA, "reg_write", {Value("k"), Value("vCA")},
                   [&](Value) { ++done; });
  radical_->Invoke(Region::kDE, "reg_write", {Value("k"), Value("vDE")},
                   [&](Value) { ++done; });
  sim_.Run();
  EXPECT_EQ(done, 2);
  // Both writes landed (CA via re-execution, DE via its own path).
  EXPECT_EQ(radical_->primary().VersionOf("k"), 3);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(FailureTest, SlowFollowupLosesIntentRaceAndIsDiscarded) {
  // The followup leaves when the speculation ends, and this speculation
  // computes for longer than the intent timer runs: the timer claims the
  // intent first, and the followup that arrives during the re-execution
  // must be discarded (§3.6 case 3).
  RadicalConfig config;
  config.server.intent_timeout = Millis(100);  // Timer beats the followup.
  ProfiledDeployment fast_timer(profile(), &sim_, &net_, config, {Region::kJP});
  fast_timer.RegisterFunction(
      Fn("reg_write", {"k", "v"}, {Write(In("k"), In("v")), Compute(Millis(200)),
                                   Return(In("v"))}));
  fast_timer.Seed("k", Value("v0"));
  fast_timer.WarmCaches();
  // The LVI request and the followup take the same ~73 ms JP->VA trip, so
  // the followup lands ~200 ms after the intent is armed, ~100 ms after its
  // timer fired.
  bool done = false;
  fast_timer.Invoke(Region::kJP, "reg_write", {Value("k"), Value("v1")},
                    [&](Value) { done = true; });
  sim_.Run();
  EXPECT_TRUE(done);
  // Re-execution won; the late followup was discarded; the write applied
  // exactly once.
  EXPECT_EQ(fast_timer.server().reexecutions(), 1u);
  EXPECT_EQ(fast_timer.server().late_followups_discarded(), 1u);
  EXPECT_EQ(fast_timer.primary().VersionOf("k"), 2);
  EXPECT_EQ(fast_timer.primary().Peek("k")->value, Value("v1"));
}

PROFILE_TEST(FailureTest, CacheLossBootstrapsGradually) {
  // Lose DE's entire cache: the next request misses (version -1), skips
  // speculation, fails validation, and repairs; the one after speculates.
  radical_->runtime(Region::kDE).cache().Clear();
  Value r1;
  radical_->Invoke(Region::kDE, "reg_read", {Value("k")}, [&](Value v) { r1 = std::move(v); });
  sim_.Run();
  EXPECT_EQ(r1, Value("v0"));
  EXPECT_EQ(radical_->runtime(Region::kDE).counters().Get("spec_skipped_miss"), 1u);
  Value r2;
  radical_->Invoke(Region::kDE, "reg_read", {Value("k")}, [&](Value v) { r2 = std::move(v); });
  sim_.Run();
  EXPECT_EQ(r2, Value("v0"));
  EXPECT_EQ(radical_->runtime(Region::kDE).counters().Get("validated_speculative"), 1u);
}

PROFILE_TEST(FailureTest, LinearizableUnderRandomFollowupLoss) {
  // Every region drops ~40% of followups; random reads/writes across regions
  // must still form a linearizable history, with intents guaranteeing every
  // acknowledged write reaches the primary.
  net::DropRule lossy;
  lossy.kind = net::MessageKind::kWriteFollowup;
  lossy.probability = 0.4;
  net_.fabric().AddDropRule(lossy);
  HistoryRecorder history;
  Rng rng(2468);
  int unique = 0;
  const int total_ops = 50;
  for (int i = 0; i < total_ops; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const bool is_write = rng.NextBool(0.5);
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(5)));
    sim_.Schedule(at, [&, region, is_write] {
      const SimTime invoke = sim_.Now();
      if (is_write) {
        const Value value("w" + std::to_string(unique++));
        radical_->Invoke(region, "reg_write", {Value("k"), value}, [&, value, invoke](Value) {
          history.Record(HistoryOp{true, "k", value, invoke, sim_.Now()});
        });
      } else {
        radical_->Invoke(region, "reg_read", {Value("k")}, [&, invoke](Value result) {
          history.Record(HistoryOp{false, "k", std::move(result), invoke, sim_.Now()});
        });
      }
    });
  }
  sim_.Run();
  EXPECT_EQ(history.size(), static_cast<size_t>(total_ops));
  const LinearizabilityResult result =
      CheckHistory(history, {{"k", Value("v0")}});
  EXPECT_TRUE(result.linearizable) << result.violation;
  EXPECT_TRUE(radical_->server().idle());
  EXPECT_GT(net_.fabric().drops_of(net::MessageKind::kWriteFollowup), 0u);
  EXPECT_GT(radical_->server().reexecutions(), 0u);
}

// The per-runtime followup filter shim is gone; a fabric drop rule on
// kWriteFollowup from one runtime's endpoint covers the same failure mode —
// and the drop shows up in the fabric's per-kind counters.
PROFILE_TEST(FailureTest, FabricDropRuleDropsFollowupAndIntentTimerRepairs) {
  net::DropRule lost_followup;
  lost_followup.kind = net::MessageKind::kWriteFollowup;
  lost_followup.from = radical_->runtime(Region::kCA).endpoint().id();
  net_.fabric().AddDropRule(lost_followup);
  Value result;
  radical_->Invoke(Region::kCA, "reg_write", {Value("k"), Value("v1")},
                   [&](Value v) { result = std::move(v); });
  sim_.Run();
  EXPECT_EQ(result, Value("v1"));
  EXPECT_EQ(net_.fabric().drops_of(net::MessageKind::kWriteFollowup), 1u);
  EXPECT_EQ(radical_->server().reexecutions(), 1u);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
}

PROFILE_TEST(FailureTest, ServerStateDrainsCleanAfterMixedTraffic) {
  Rng rng(1357);
  for (int i = 0; i < 40; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(2)));
    const bool is_write = rng.NextBool(0.3);
    sim_.Schedule(at, [this, region, is_write, i] {
      if (is_write) {
        radical_->Invoke(region, "reg_write", {Value("k"), Value("x" + std::to_string(i))},
                         [](Value) {});
      } else {
        radical_->Invoke(region, "reg_read", {Value("k")}, [](Value) {});
      }
    });
  }
  sim_.Run();
  EXPECT_TRUE(radical_->server().idle());
  EXPECT_EQ(radical_->server().counters().Get("lvi_requests"),
            radical_->server().validations_succeeded() +
                radical_->server().validations_failed());
}

PROFILE_TEST(FailureTest, ServerCrashDropsNewRequestsUntilRecovery) {
  radical_->server().Crash();
  bool replied = false;
  radical_->Invoke(Region::kCA, "reg_read", {Value("k")}, [&](Value) { replied = true; });
  sim_.RunFor(Seconds(3));
  EXPECT_FALSE(replied);  // "LVI requests cannot be handled until the server
                          // is brought back online" (§5.6).
  EXPECT_GE(radical_->server().counters().Get("dropped_while_down"), 1u);
  radical_->server().Recover();
  Value result;
  radical_->Invoke(Region::kCA, "reg_read", {Value("k")}, [&](Value v) { result = std::move(v); });
  sim_.Run();
  EXPECT_EQ(result, Value("v0"));
}

PROFILE_TEST(FailureTest, PendingIntentSurvivesServerCrashAndResolvesAfterRecovery) {
  // A write validates and the client is answered; the server crashes before
  // the followup lands (the followup is dropped while it is down). The
  // durable intent — re-armed at recovery — re-executes the function, so the
  // acknowledged write still reaches the primary exactly once. The
  // speculation outlasts the ~88 ms DE<->VA round trip, so the followup
  // leaves with the reply, not ahead of it.
  radical_->RegisterFunction(Fn("slow_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Compute(Millis(150)),
      Return(In("v")),
  }));
  bool replied = false;
  radical_->Invoke(Region::kDE, "slow_write", {Value("k"), Value("v-crash")},
                   [&](Value) { replied = true; });
  // Run until the client has its answer but the followup is still in flight
  // (the one-way DE->VA trip takes ~44 ms).
  while (!replied && sim_.Step()) {
  }
  ASSERT_TRUE(replied);
  radical_->server().Crash();
  sim_.RunFor(Seconds(1));  // Followup arrives at a dead server: dropped.
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v0"));  // Not applied.
  EXPECT_GE(radical_->server().counters().Get("dropped_while_down"), 1u);
  radical_->server().Recover();
  sim_.Run();  // Re-armed intent timer fires; deterministic re-execution.
  EXPECT_EQ(radical_->server().reexecutions(), 1u);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v-crash"));
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);
  EXPECT_TRUE(radical_->server().idle());
}

// fast_write's speculation takes no virtual time, so its followup leaves
// right behind the LVI request and reaches the server before validation.
void RegisterFastWrite(ProfiledDeployment* radical) {
  radical->RegisterFunction(Fn("fast_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Return(In("v")),
  }));
}

PROFILE_TEST(FailureTest, CrashWithParkedFollowupReExecutesTheIntentOnce) {
  // The server crashes between the validation and the intent-write round
  // that would have applied the parked followup: the parked writes are
  // volatile and die with it, and the round leaves no trace. The client's
  // retry validates and arms an intent; the followup the retried request
  // sends again is lost too, and the intent timer lands the write exactly
  // once.
  RegisterFastWrite(radical_.get());
  Value result;
  radical_->Invoke(Region::kDE, "fast_write", {Value("k"), Value("v1")},
                   [&](Value v) { result = std::move(v); });
  while (radical_->server().validations_succeeded() == 0 && sim_.Step()) {
  }
  ASSERT_EQ(radical_->server().counters().Get("followup_parked"), 1u);
  EXPECT_EQ(radical_->primary().VersionOf("k"), 1);  // Not yet applied.
  radical_->server().Crash();
  EXPECT_EQ(radical_->server().counters().Get("followup_dropped_invalid"), 1u);
  sim_.RunFor(Millis(100));
  const int rule = DropFollowupsFrom(Region::kDE);
  radical_->server().Recover();
  sim_.Run();
  EXPECT_EQ(result, Value("v1"));
  EXPECT_EQ(net_.fabric().RuleDrops(rule), 1u);  // The resent followup.
  EXPECT_EQ(radical_->server().counters().Get("followup_applied"), 0u);
  EXPECT_EQ(radical_->server().reexecutions(), 1u);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_EQ(HeldLocks(), 0u);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(FailureTest, LostLviRequestWithDeliveredFollowupAppliesThroughTheResentFollowup) {
  // The first LVI request is lost, so the followup behind it finds no
  // pipeline to park under and is discarded. The retried request validates
  // and arms an intent; the runtime, seeing a retried request, sends the
  // followup again at commit, and it lands the write exactly once without
  // waiting for the intent timer.
  net::DropRule lost_request;
  lost_request.kind = net::MessageKind::kLviRequest;
  lost_request.from = radical_->runtime(Region::kDE).endpoint().id();
  lost_request.max_drops = 1;
  const int rule = net_.fabric().AddDropRule(lost_request);
  Value result;
  radical_->Invoke(Region::kDE, "reg_write", {Value("k"), Value("v1")},
                   [&](Value v) { result = std::move(v); });
  sim_.Run();
  EXPECT_EQ(net_.fabric().RuleDrops(rule), 1u);
  EXPECT_EQ(result, Value("v1"));
  EXPECT_EQ(radical_->runtime(Region::kDE).counters().Get("retries"), 1u);
  EXPECT_EQ(radical_->server().counters().Get("followup_parked"), 0u);
  EXPECT_EQ(radical_->server().late_followups_discarded(), 1u);
  EXPECT_EQ(radical_->server().counters().Get("followup_applied"), 1u);
  EXPECT_EQ(radical_->server().reexecutions(), 0u);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_EQ(HeldLocks(), 0u);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(FailureTest, LostRepliesAfterAnEarlyFollowupKeepTheRequestOnTheLviPath) {
  // The parked followup commits at validation, then every reply of the
  // whole LVI attempt budget is lost. A direct run now would execute the
  // function a second time, so the request retries the LVI path on a fresh
  // schedule instead, and the replayed validated reply completes it.
  RegisterFastWrite(radical_.get());
  net::DropRule lost_reply;
  lost_reply.kind = net::MessageKind::kLviResponse;
  lost_reply.to = radical_->runtime(Region::kDE).endpoint().id();
  lost_reply.max_drops = static_cast<uint64_t>(radical_->config().retry.max_lvi_attempts);
  const int rule = net_.fabric().AddDropRule(lost_reply);
  Value result;
  radical_->Invoke(Region::kDE, "fast_write", {Value("k"), Value("v1")},
                   [&](Value v) { result = std::move(v); });
  sim_.Run();
  EXPECT_EQ(net_.fabric().RuleDrops(rule), lost_reply.max_drops);
  EXPECT_EQ(result, Value("v1"));
  const obs::MetricsScope counters = radical_->runtime(Region::kDE).counters();
  EXPECT_EQ(counters.Get("lvi_retry_after_followup"), 1u);
  EXPECT_EQ(counters.Get("fallback_direct"), 0u);
  EXPECT_EQ(counters.Get("validated_speculative"), 1u);
  EXPECT_EQ(radical_->server().counters().Get("followup_applied"), 1u);
  EXPECT_EQ(radical_->server().reexecutions(), 0u);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);  // Executed exactly once.
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(FailureTest, LocksSurviveServerCrash) {
  // Locks are persisted to disk (§4): a writer's lock held across a crash
  // still excludes a competitor after recovery, until the writer's intent
  // resolves.
  bool writer_replied = false;
  radical_->Invoke(Region::kCA, "reg_write", {Value("k"), Value("vA")},
                   [&](Value) { writer_replied = true; });
  while (!writer_replied && sim_.Step()) {
  }
  ASSERT_TRUE(writer_replied);
  radical_->server().Crash();
  sim_.RunFor(Millis(200));  // Followup lost at the dead server.
  radical_->server().Recover();
  // A competing writer must wait behind the persisted lock, then proceed
  // once re-execution releases it.
  bool competitor_replied = false;
  radical_->Invoke(Region::kDE, "reg_write", {Value("k"), Value("vB")},
                   [&](Value) { competitor_replied = true; });
  sim_.Run();
  EXPECT_TRUE(competitor_replied);
  EXPECT_EQ(radical_->primary().VersionOf("k"), 3);  // Both applied, in order.
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("vB"));
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(FailureTest, RecoverReArmsAllPendingIntentTimers) {
  // Regression: intent timers are volatile and die with a crash; Recover()
  // must give *every* still-pending intent a fresh timer, not just the first
  // it happens to see.
  radical_->Seed("a", Value("a0"));
  radical_->Seed("b", Value("b0"));
  radical_->WarmCaches();
  DropFollowupsFrom(Region::kCA);
  DropFollowupsFrom(Region::kDE);
  int replied = 0;
  radical_->Invoke(Region::kCA, "reg_write", {Value("a"), Value("a1")},
                   [&](Value) { ++replied; });
  radical_->Invoke(Region::kDE, "reg_write", {Value("b"), Value("b1")},
                   [&](Value) { ++replied; });
  while (replied < 2 && sim_.Step()) {
  }
  ASSERT_EQ(replied, 2);  // Both validated; both followups lost in flight.
  radical_->server().Crash();  // Before the 500 ms intent timers fire.
  sim_.RunFor(Seconds(2));     // Well past the timeout: nothing may resolve.
  EXPECT_EQ(radical_->server().reexecutions(), 0u);
  EXPECT_EQ(radical_->primary().VersionOf("a"), 1);
  EXPECT_EQ(radical_->primary().VersionOf("b"), 1);
  radical_->server().Recover();  // Re-arms both pending intents.
  sim_.Run();
  EXPECT_EQ(radical_->server().reexecutions(), 2u);
  EXPECT_EQ(radical_->primary().Peek("a")->value, Value("a1"));
  EXPECT_EQ(radical_->primary().Peek("b")->value, Value("b1"));
  EXPECT_TRUE(radical_->server().idle());
}

// A crash between an execution's read point and its write (RunAtPrimary):
// the writes were still buffered, so none reached the primary, and the locks
// survive on disk. After recovery the execution runs again — through the
// client's retry, or the re-armed intent — and its write lands exactly once.

PROFILE_TEST(FailureTest, BackupCutOffBeforeItsWriteRunsOnceOnRetry) {
  // The primary moves on without telling the caches, so CA's
  // read-modify-write speculates on a stale version, fails validation, and
  // runs as a backup.
  radical_->primary().Put("k", Value("v-moved"), nullptr);  // Version 2.
  Value result;
  radical_->Invoke(Region::kCA, "rmw_write", {Value("k"), Value("v1")},
                   [&](Value v) { result = std::move(v); });
  RunIntoCompute([&] { return radical_->server().validations_failed() > 0; });
  radical_->server().Crash();
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);  // Nothing applied.
  EXPECT_GT(HeldLocks(), 0u);                        // The write lock survives.
  sim_.RunFor(Millis(500));
  radical_->server().Recover();
  sim_.Run();  // The client's retry fails validation again; the backup reruns.
  EXPECT_EQ(result, Value("v1"));
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
  EXPECT_EQ(radical_->primary().VersionOf("k"), 3);  // Applied exactly once.
  EXPECT_EQ(HeldLocks(), 0u);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(FailureTest, ReExecutionCutOffBeforeItsWriteRunsOnceAfterRecovery) {
  DropFollowupsFrom(Region::kCA);
  bool replied = false;
  radical_->Invoke(Region::kCA, "reg_write", {Value("k"), Value("v1")},
                   [&](Value) { replied = true; });
  RunIntoCompute([&] { return radical_->server().reexecutions() > 0; });
  radical_->server().Crash();
  EXPECT_TRUE(replied);  // Answered from speculation before the crash.
  EXPECT_EQ(radical_->primary().VersionOf("k"), 1);  // Nothing applied.
  EXPECT_GT(HeldLocks(), 0u);
  sim_.RunFor(Seconds(1));
  // The crash orphaned the cut-off re-execution's intent; recovery re-arms
  // it and a fresh timer re-executes it.
  radical_->server().Recover();
  sim_.Run();
  EXPECT_EQ(radical_->server().reexecutions(), 2u);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_EQ(HeldLocks(), 0u);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(FailureTest, DirectExecutionCutOffBeforeItsWriteRunsOnceOnRetry) {
  RequestOptions options;
  options.consistency = ConsistencyMode::kDirect;
  std::optional<Outcome> outcome;
  radical_->client(Region::kCA).Submit(Request{"reg_write", {Value("k"), Value("v1")}}, options,
                                       [&](Outcome o) { outcome = std::move(o); });
  RunIntoCompute([&] { return radical_->server().counters().Get("direct_requests") > 0; });
  radical_->server().Crash();
  EXPECT_EQ(radical_->primary().VersionOf("k"), 1);  // Nothing applied.
  EXPECT_GT(HeldLocks(), 0u);
  sim_.RunFor(Millis(500));
  radical_->server().Recover();
  sim_.Run();  // The client's retry is granted the locks it holds and reruns.
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok());
  EXPECT_EQ(outcome->result, Value("v1"));
  EXPECT_EQ(radical_->server().counters().Get("direct_requests"), 2u);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_EQ(HeldLocks(), 0u);
  EXPECT_TRUE(radical_->server().idle());
}

TEST(DeploymentConfigTest, ConfigHoldsTheBackupInvokeOverheadTheServerRuns) {
  // The near-storage location invokes a backup as the near-user location
  // invokes a function: Lambda instantiation plus blob load. The deployment
  // writes that into its config, so tests timing a backup from
  // config().server read the value the server waits.
  Simulator sim(7);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalConfig config;
  config.lambda_invoke = Millis(20);
  config.blob_load = Millis(3);
  RadicalDeployment radical(&sim, &net, config, {Region::kCA});
  EXPECT_EQ(radical.config().server.backup_invoke_overhead, Millis(23));
}

}  // namespace
}  // namespace radical
