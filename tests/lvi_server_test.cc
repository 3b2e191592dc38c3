// Protocol-level tests for the LVI server: validation, write intents,
// followups, deterministic re-execution, the direct path, and the lock
// timing of executions at the primary (RunAtPrimary).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/analysis/registry.h"
#include "src/check/linearizability.h"
#include "src/func/builder.h"
#include "src/lvi/lvi_server.h"
#include "src/obs/span.h"

namespace radical {
namespace {

class LviServerTest : public ::testing::Test {
 protected:
  LviServerTest()
      : analyzer_(&HostRegistry::Standard()),
        interp_(&HostRegistry::Standard()),
        registry_(&analyzer_),
        locks_(&sim_) {
    options_.intent_timeout = Millis(500);
    server_ = std::make_unique<LviServer>(&sim_, &store_, &registry_, &interp_, &locks_,
                                          options_);
    // reg_set(k, v): one write whose key is an input.
    registry_.Register(Fn("reg_set", {"k", "v"}, {
        Write(In("k"), In("v")),
        Return(In("v")),
    }));
    // reg_get(k): one read.
    registry_.Register(Fn("reg_get", {"k"}, {
        Read("out", In("k")),
        Return(V("out")),
    }));
  }

  LviRequest MakeRequest(const std::string& function, std::vector<Value> inputs,
                         std::vector<LviItem> items) {
    LviRequest request;
    request.exec_id = sim_.NextId();
    request.origin = Region::kCA;
    request.function = function;
    request.inputs = std::move(inputs);
    request.items = std::move(items);
    return request;
  }

  // A request from CA's runtime (life 0) that acknowledges every earlier id
  // it issued: it is its origin's only open request.
  LviRequest AckingRequest(const std::string& function, std::vector<Value> inputs,
                           std::vector<LviItem> items) {
    LviRequest request = MakeRequest(function, std::move(inputs), std::move(items));
    request.ack = Ack{0, request.exec_id};
    return request;
  }

  // One of `server`'s size.* gauges (what it keeps until acknowledged).
  int64_t Kept(const LviServer& server, const std::string& table) {
    return sim_.metrics().GaugeValue(server.counters().prefix() + ".size." + table);
  }

  Simulator sim_;
  VersionedStore store_;
  Analyzer analyzer_;
  Interpreter interp_;
  FunctionRegistry registry_;
  LockService locks_;
  LviServerOptions options_;
  std::unique_ptr<LviServer> server_;
};

TEST_F(LviServerTest, ReadOnlyValidationSuccessReleasesLocksImmediately) {
  store_.Seed("k", Value("v"));  // Version 1.
  std::optional<LviResponse> response;
  server_->HandleLviRequest(MakeRequest("reg_get", {Value("k")},
                                        {{"k", 1, LockMode::kRead}}),
                            [&](LviResponse r) { response = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->validated);
  EXPECT_EQ(server_->validations_succeeded(), 1u);
  EXPECT_FALSE(locks_.table().IsReadHeldBy("k", response->exec_id));
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, ValidationFailureRunsBackupAndRepairs) {
  // A writer's stale read: the backup runs at the primary. (A read-only
  // request gets its snapshot instead, see the next test.)
  registry_.Register(Fn("rmw_set", {"k", "v"}, {
      Read("old", In("k")),
      Write(In("k"), In("v")),
      Return(V("old")),
  }));
  store_.Seed("k", Value("fresh"));  // Version 1; cache claims version 0.
  std::optional<LviResponse> response;
  server_->HandleLviRequest(MakeRequest("rmw_set", {Value("k"), Value("new")},
                                        {{"k", 0, LockMode::kWrite}}),
                            [&](LviResponse r) { response = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->validated);
  EXPECT_FALSE(response->snapshot);
  EXPECT_EQ(response->backup_result, Value("fresh"));
  ASSERT_EQ(response->fresh_items.size(), 1u);
  EXPECT_EQ(response->fresh_items[0].key, "k");
  EXPECT_EQ(response->fresh_items[0].value, Value("new"));
  EXPECT_EQ(response->fresh_items[0].version, 2);
  EXPECT_EQ(server_->validations_failed(), 1u);
  EXPECT_EQ(server_->backup_executions(), 1u);
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, StaleReadOnlyRequestIsAnsweredWithItsSnapshot) {
  registry_.Register(Fn("pair_get", {"a", "b"}, {
      Read("x", In("a")),
      Read("y", In("b")),
      Return(Append(Append(C(Value(ValueList{})), V("x")), V("y"))),
  }));
  obs::SpanCollector spans;
  server_->set_span_collector(&spans);
  store_.Seed("k", Value("fresh"));  // Version 1; cache claims version 0.
  // "gone" is absent at the primary and in the cache: it validates, and the
  // snapshot says it is absent.
  const LviRequest request = MakeRequest("pair_get", {Value("k"), Value("gone")},
                                         {{"gone", kMissingVersion, LockMode::kRead},
                                          {"k", 0, LockMode::kRead}});
  std::optional<LviResponse> response;
  bool locks_held_at_reply = true;
  server_->HandleLviRequest(request, [&](LviResponse r) {
    response = std::move(r);
    locks_held_at_reply = locks_.table().IsReadHeldBy("k", request.exec_id);
  });
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->validated);
  EXPECT_TRUE(response->snapshot);
  EXPECT_EQ(response->backup_result, Value());  // No backup ran.
  ASSERT_EQ(response->fresh_items.size(), 2u);
  EXPECT_EQ(response->fresh_items[0].key, "gone");
  EXPECT_EQ(response->fresh_items[0].value, Value());
  EXPECT_EQ(response->fresh_items[0].version, kMissingVersion);
  EXPECT_EQ(response->fresh_items[1].key, "k");
  EXPECT_EQ(response->fresh_items[1].value, Value("fresh"));
  EXPECT_EQ(response->fresh_items[1].version, 1);
  EXPECT_FALSE(locks_held_at_reply);
  EXPECT_EQ(server_->validations_failed(), 1u);
  EXPECT_EQ(server_->backup_executions(), 0u);
  EXPECT_EQ(store_.reads(), 0u);  // Nothing ran at the primary.
  for (const obs::Span& span : spans.spans()) {
    EXPECT_NE(span.name, "server.backup_exec");
  }
  // A retry replays the same snapshot.
  std::optional<LviResponse> replay;
  server_->HandleLviRequest(request, [&](LviResponse r) { replay = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->snapshot);
  ASSERT_EQ(replay->fresh_items.size(), 2u);
  EXPECT_EQ(replay->fresh_items[1].value, Value("fresh"));
  EXPECT_EQ(server_->counters().Get("duplicate_replayed"), 1u);
  EXPECT_EQ(server_->validations_failed(), 1u);
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, BlindWriteIsPinnedNotComparedAndReadWriteIsCompared) {
  store_.Seed("k", Value("v0"));
  store_.Put("k", Value("moved"), nullptr);  // Version 2; the cache claims 1.
  std::optional<LviResponse> blind;
  const LviRequest blind_request =
      MakeRequest("reg_set", {Value("k"), Value("v1")}, {{"k", 1, LockMode::kWrite, true}});
  server_->HandleLviRequest(blind_request, [&](LviResponse r) { blind = std::move(r); });
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(blind.has_value());
  EXPECT_TRUE(blind->validated);
  ASSERT_EQ(blind->fresh_items.size(), 1u);
  EXPECT_EQ(blind->fresh_items[0].key, "k");
  EXPECT_EQ(blind->fresh_items[0].version, 2);
  WriteFollowup followup;
  followup.exec_id = blind_request.exec_id;
  followup.writes = {{"k", Value("v1")}};
  server_->HandleFollowup(followup);
  sim_.Run();
  EXPECT_EQ(store_.VersionOf("k"), 3);  // Applied at the pinned version + 1.
  EXPECT_EQ(server_->validations_failed(), 0u);

  // The same write marked read-write, with the same stale version, fails.
  std::optional<LviResponse> read_write;
  server_->HandleLviRequest(
      MakeRequest("reg_set", {Value("k"), Value("v2")}, {{"k", 1, LockMode::kWrite}}),
      [&](LviResponse r) { read_write = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(read_write.has_value());
  EXPECT_FALSE(read_write->validated);
  EXPECT_EQ(server_->validations_failed(), 1u);
  EXPECT_EQ(store_.VersionOf("k"), 4);  // The backup wrote it.
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, MissingItemSentinelValidatesOnlyIfAbsent) {
  // Cache says -1, primary has nothing: versions match, validation succeeds.
  std::optional<LviResponse> r1;
  server_->HandleLviRequest(MakeRequest("reg_get", {Value("nope")},
                                        {{"nope", kMissingVersion, LockMode::kRead}}),
                            [&](LviResponse r) { r1 = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(r1.has_value());
  EXPECT_TRUE(r1->validated);
  // Cache says -1 but the primary has the item: mismatch.
  store_.Seed("there", Value("x"));
  std::optional<LviResponse> r2;
  server_->HandleLviRequest(MakeRequest("reg_get", {Value("there")},
                                        {{"there", kMissingVersion, LockMode::kRead}}),
                            [&](LviResponse r) { r2 = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(r2.has_value());
  EXPECT_FALSE(r2->validated);
}

TEST_F(LviServerTest, EachItemValidatesAgainstItsOwnPrimaryVersion) {
  registry_.Register(Fn("copy", {"src", "dst"}, {
      Read("v", In("src")),
      Write(In("dst"), V("v")),
      Return(V("v")),
  }));
  store_.Seed("a", Value("x"));  // Version 1.
  store_.Seed("b", Value("y"));
  store_.Seed("b", Value("y"));  // Version 2.
  // Both cached versions are current: the request validates, and the write
  // lands at b's own version.
  std::optional<LviResponse> fresh;
  LviRequest request = MakeRequest("copy", {Value("a"), Value("b")},
                                   {{"a", 1, LockMode::kRead}, {"b", 2, LockMode::kWrite}});
  const ExecutionId exec_id = request.exec_id;
  server_->HandleLviRequest(std::move(request), [&](LviResponse r) { fresh = std::move(r); });
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(fresh->validated);
  WriteFollowup followup;
  followup.exec_id = exec_id;
  followup.writes = {{"b", Value("x")}};
  server_->HandleFollowup(std::move(followup));
  sim_.RunFor(Millis(50));
  EXPECT_EQ(store_.VersionOf("b"), 3);
  // Only b is stale (its cache claims a's version): the backup repairs b.
  std::optional<LviResponse> stale;
  server_->HandleLviRequest(MakeRequest("copy", {Value("a"), Value("b")},
                                        {{"a", 1, LockMode::kRead}, {"b", 1, LockMode::kWrite}}),
                            [&](LviResponse r) { stale = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(stale->validated);
  ASSERT_EQ(stale->fresh_items.size(), 1u);
  EXPECT_EQ(stale->fresh_items[0].key, "b");
  EXPECT_EQ(stale->fresh_items[0].version, 4);
  EXPECT_EQ(server_->validations_succeeded(), 1u);
  EXPECT_EQ(server_->validations_failed(), 1u);
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, WriteIntentHoldsLocksUntilFollowup) {
  store_.Seed("k", Value("old"));
  std::optional<LviResponse> response;
  LviRequest request = MakeRequest("reg_set", {Value("k"), Value("new")},
                                   {{"k", 1, LockMode::kWrite}});
  const ExecutionId exec_id = request.exec_id;
  server_->HandleLviRequest(std::move(request),
                            [&](LviResponse r) { response = std::move(r); });
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->validated);
  // Locks still held; primary unchanged until the followup.
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("k", exec_id));
  EXPECT_EQ(store_.Peek("k")->value, Value("old"));
  // Followup applies the speculative write at the pinned version.
  WriteFollowup followup;
  followup.exec_id = exec_id;
  followup.writes = {{"k", Value("new")}};
  server_->HandleFollowup(std::move(followup));
  sim_.RunFor(Millis(50));
  EXPECT_EQ(store_.Peek("k")->value, Value("new"));
  EXPECT_EQ(store_.VersionOf("k"), 2);
  EXPECT_FALSE(locks_.table().IsWriteHeldBy("k", exec_id));
  EXPECT_TRUE(server_->idle());
  EXPECT_EQ(server_->counters().Get("followup_applied"), 1u);
}

TEST_F(LviServerTest, IntentTimerTriggersDeterministicReExecution) {
  store_.Seed("k", Value("old"));
  LviRequest request = MakeRequest("reg_set", {Value("k"), Value("speculated")},
                                   {{"k", 1, LockMode::kWrite}});
  const ExecutionId exec_id = request.exec_id;
  server_->HandleLviRequest(std::move(request), [](LviResponse) {});
  // Never send the followup; let the intent timer fire.
  sim_.Run();
  EXPECT_EQ(server_->reexecutions(), 1u);
  // Re-execution on the same inputs produced the same write.
  EXPECT_EQ(store_.Peek("k")->value, Value("speculated"));
  EXPECT_EQ(store_.VersionOf("k"), 2);
  EXPECT_FALSE(locks_.table().IsWriteHeldBy("k", exec_id));
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, LateFollowupIsDiscarded) {
  store_.Seed("k", Value("old"));
  LviRequest request = MakeRequest("reg_set", {Value("k"), Value("v")},
                                   {{"k", 1, LockMode::kWrite}});
  const ExecutionId exec_id = request.exec_id;
  server_->HandleLviRequest(std::move(request), [](LviResponse) {});
  sim_.Run();  // Timer fires, re-execution applies "v" at version 2.
  ASSERT_EQ(server_->reexecutions(), 1u);
  WriteFollowup followup;
  followup.exec_id = exec_id;
  followup.writes = {{"k", Value("v")}};
  server_->HandleFollowup(std::move(followup));
  sim_.Run();
  EXPECT_EQ(server_->late_followups_discarded(), 1u);
  EXPECT_EQ(store_.VersionOf("k"), 2);  // Applied exactly once.
}

TEST_F(LviServerTest, EarlyFollowupCommitsInTheIntentWriteRound) {
  // The followup leaves when the speculation ends, right behind its LVI
  // request: it waits for the validation, and the intent-write round writes
  // its updates instead of an intent. No intent, no timer; the locks are
  // free when the reply leaves.
  store_.Seed("k", Value("old"));
  LviRequest request = MakeRequest("reg_set", {Value("k"), Value("new")},
                                   {{"k", 1, LockMode::kWrite}});
  const ExecutionId exec_id = request.exec_id;
  std::optional<LviResponse> response;
  std::optional<Item> at_reply;
  bool held_at_reply = true;
  bool idle_at_reply = false;
  server_->HandleLviRequest(std::move(request), [&](LviResponse r) {
    response = std::move(r);
    at_reply = store_.Peek("k");
    held_at_reply = locks_.table().IsWriteHeldBy("k", exec_id);
    idle_at_reply = server_->idle();
  });
  WriteFollowup followup;
  followup.exec_id = exec_id;
  followup.writes = {{"k", Value("new")}};
  server_->HandleFollowup(std::move(followup));
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->validated);
  ASSERT_TRUE(at_reply.has_value());
  EXPECT_EQ(at_reply->value, Value("new"));
  EXPECT_EQ(at_reply->version, 2);
  EXPECT_FALSE(held_at_reply);
  EXPECT_TRUE(idle_at_reply);
  EXPECT_EQ(server_->counters().Get("followup_parked"), 1u);
  EXPECT_EQ(server_->counters().Get("followup_applied"), 1u);
  EXPECT_EQ(server_->late_followups_discarded(), 0u);
  EXPECT_EQ(server_->reexecutions(), 0u);
  EXPECT_EQ(store_.VersionOf("k"), 2);  // Applied exactly once.
}

TEST_F(LviServerTest, FailedValidationDropsItsEarlyFollowup) {
  // Whether the followup arrives before the verdict or during the backup the
  // failed validation starts, its speculation never lands: only the
  // backup's write does, and nothing stays parked.
  const SimDuration arrivals[] = {0, Millis(5)};
  for (size_t i = 0; i < 2; ++i) {
    const Key key = "k" + std::to_string(i);
    store_.Seed(key, Value("old"));
    store_.Put(key, Value("moved"), nullptr);  // Version 2; the cache saw 1.
    LviRequest request = MakeRequest("reg_set", {Value(key), Value("backup")},
                                     {{key, 1, LockMode::kWrite}});
    const ExecutionId exec_id = request.exec_id;
    std::optional<LviResponse> response;
    server_->HandleLviRequest(std::move(request),
                              [&](LviResponse r) { response = std::move(r); });
    sim_.Schedule(arrivals[i], [this, exec_id, key] {
      WriteFollowup followup;
      followup.exec_id = exec_id;
      followup.writes = {{key, Value("speculated")}};
      server_->HandleFollowup(std::move(followup));
    });
    sim_.Run();
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->validated);
    EXPECT_EQ(store_.Peek(key)->value, Value("backup"));
    EXPECT_EQ(store_.VersionOf(key), 3);
    EXPECT_EQ(server_->counters().Get("followup_parked"), i + 1);
    EXPECT_EQ(server_->counters().Get("followup_dropped_invalid"), i + 1);
    EXPECT_EQ(server_->counters().Get("followup_applied"), 0u);
    EXPECT_TRUE(server_->idle());
  }
}

TEST_F(LviServerTest, ConcurrentWritersSerializeThroughLocks) {
  store_.Seed("k", Value("v0"));
  // Writer A validates and holds the write lock.
  LviRequest a = MakeRequest("reg_set", {Value("k"), Value("vA")},
                             {{"k", 1, LockMode::kWrite}});
  const ExecutionId exec_a = a.exec_id;
  bool a_validated = false;
  server_->HandleLviRequest(std::move(a), [&](LviResponse r) { a_validated = r.validated; });
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(a_validated);
  // Writer B arrives with the same cached version; it must wait, and by the
  // time it validates, the version has moved -> backup execution.
  LviRequest b = MakeRequest("reg_set", {Value("k"), Value("vB")},
                             {{"k", 1, LockMode::kWrite}});
  std::optional<LviResponse> b_response;
  server_->HandleLviRequest(std::move(b), [&](LviResponse r) { b_response = std::move(r); });
  sim_.RunFor(Millis(50));
  EXPECT_FALSE(b_response.has_value());  // Parked on A's lock.
  WriteFollowup followup;
  followup.exec_id = exec_a;
  followup.writes = {{"k", Value("vA")}};
  server_->HandleFollowup(std::move(followup));
  sim_.Run();
  ASSERT_TRUE(b_response.has_value());
  EXPECT_FALSE(b_response->validated);  // Stale after A.
  EXPECT_EQ(store_.Peek("k")->value, Value("vB"));  // B's backup ran under locks.
  EXPECT_EQ(store_.VersionOf("k"), 3);
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, DirectExecutionAppliesWritesAndReportsThem) {
  store_.Seed("k", Value("old"));
  DirectRequest request;
  request.exec_id = sim_.NextId();
  request.origin = Region::kJP;
  request.function = "reg_set";
  request.inputs = {Value("k"), Value("direct")};
  std::optional<DirectResponse> response;
  server_->HandleDirect(std::move(request),
                        [&](DirectResponse r) { response = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->result, Value("direct"));
  ASSERT_EQ(response->fresh_items.size(), 1u);
  EXPECT_EQ(response->fresh_items[0].version, 2);
  EXPECT_EQ(store_.Peek("k")->value, Value("direct"));
}

TEST_F(LviServerTest, ValidationLatencyComponentsAreCharged) {
  store_.Seed("k", Value("v"));
  const SimTime start = sim_.Now();
  SimTime responded_at = 0;
  server_->HandleLviRequest(MakeRequest("reg_set", {Value("k"), Value("x")},
                                        {{"k", 1, LockMode::kWrite}}),
                            [&](LviResponse) { responded_at = sim_.Now(); });
  sim_.RunFor(Millis(100));
  // process + version read + intent write.
  const SimDuration expected = options_.process_delay + store_.options().read_latency +
                               store_.options().write_latency;
  EXPECT_GE(responded_at - start, expected);
  EXPECT_LT(responded_at - start, expected + Millis(2));
}

TEST_F(LviServerTest, ValidationSuccessRateCounter) {
  store_.Seed("k", Value("v"));
  server_->HandleLviRequest(
      MakeRequest("reg_get", {Value("k")}, {{"k", 1, LockMode::kRead}}), [](LviResponse) {});
  server_->HandleLviRequest(
      MakeRequest("reg_get", {Value("k")}, {{"k", 99, LockMode::kRead}}), [](LviResponse) {});
  sim_.Run();
  EXPECT_DOUBLE_EQ(server_->ValidationSuccessRate(), 0.5);
}

TEST_F(LviServerTest, CrashMidAdmissionDropsContinuationsWithoutMutation) {
  // Regression: continuations scheduled before Crash() used to run after it
  // against post-crash state. Crash between admission and validation — the
  // in-flight pipeline step must drop on the epoch check, mutating nothing.
  store_.Seed("k", Value("v0"));  // Version 1.
  LviRequest request = MakeRequest("reg_set", {Value("k"), Value("v1")},
                                   {{"k", 1, LockMode::kWrite}});
  const LviRequest retry = request;
  bool responded = false;
  server_->HandleLviRequest(std::move(request), [&](LviResponse) { responded = true; });
  // Past admission (process_delay = 300 us) and the lock grant; the
  // validation-read continuation is still in flight.
  sim_.RunFor(Micros(350));
  server_->Crash();
  sim_.RunFor(Seconds(2));
  EXPECT_FALSE(responded);
  EXPECT_GE(server_->counters().Get("stale_epoch_dropped"), 1u);
  EXPECT_EQ(server_->validations_succeeded(), 0u);
  EXPECT_EQ(store_.VersionOf("k"), 1);  // No intent, no write.
  EXPECT_TRUE(server_->idle());

  // The retried request (same exec_id) restarts against the surviving
  // durable state and completes exactly once.
  server_->Recover();
  std::optional<LviResponse> response;
  server_->HandleLviRequest(retry, [&](LviResponse r) { response = std::move(r); });
  sim_.Run();  // Validates; no followup ever comes; the intent re-executes.
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->validated);
  EXPECT_EQ(server_->reexecutions(), 1u);
  EXPECT_EQ(store_.Peek("k")->value, Value("v1"));
  EXPECT_EQ(store_.VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, DuplicateLviRequestReplaysCachedReply) {
  store_.Seed("k", Value("v0"));
  LviRequest request = MakeRequest("reg_set", {Value("k"), Value("v1")},
                                   {{"k", 1, LockMode::kWrite}});
  const LviRequest retry = request;
  server_->HandleLviRequest(std::move(request), [](LviResponse) {});
  sim_.Run();  // Validates; the intent timer re-executes (no followup sent).
  ASSERT_EQ(server_->reexecutions(), 1u);
  ASSERT_EQ(store_.VersionOf("k"), 2);
  // A duplicate (the response was lost on the wire) replays the cached
  // reply: no second validation, no second execution.
  std::optional<LviResponse> response;
  server_->HandleLviRequest(retry, [&](LviResponse r) { response = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->validated);
  EXPECT_EQ(server_->counters().Get("duplicate_replayed"), 1u);
  EXPECT_EQ(server_->validations_succeeded(), 1u);
  EXPECT_EQ(server_->reexecutions(), 1u);
  EXPECT_EQ(store_.VersionOf("k"), 2);
}

TEST_F(LviServerTest, CrashDuringFollowupApplyReleasesItsLocksOnRecover) {
  store_.Seed("k", Value("v0"));  // Version 1.
  LviRequest a = MakeRequest("reg_set", {Value("k"), Value("a")},
                             {{"k", 1, LockMode::kWrite}});
  const ExecutionId exec_a = a.exec_id;
  server_->HandleLviRequest(std::move(a), [](LviResponse) {});
  sim_.RunFor(Millis(50));  // Validated; the intent holds k's write lock.
  // A second writer queues behind that lock.
  LviRequest b = MakeRequest("reg_set", {Value("k"), Value("b")},
                             {{"k", 1, LockMode::kWrite}});
  const LviRequest b_retry = b;
  server_->HandleLviRequest(std::move(b), [](LviResponse) {});
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(locks_.table().IsWriteHeldBy("k", exec_a));
  // The followup's writes land on arrival; its locks go apply_latency later.
  // Crash in between.
  WriteFollowup followup;
  followup.exec_id = exec_a;
  followup.writes = {{"k", Value("a")}};
  const WriteFollowup retransmit = followup;
  server_->HandleFollowup(std::move(followup));
  while (server_->counters().Get("followup_applied") == 0 && sim_.Step()) {
  }
  ASSERT_EQ(store_.VersionOf("k"), 2);
  server_->Crash();
  sim_.RunFor(Millis(50));
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("k", exec_a));  // Cut off before the release.
  server_->Recover();
  EXPECT_EQ(server_->counters().Get("recover_cleanup"), 1u);
  EXPECT_FALSE(locks_.table().IsWriteHeldBy("k", exec_a));
  // The retransmitted followup is late: the write is applied once.
  server_->HandleFollowup(retransmit);
  sim_.Run();
  EXPECT_EQ(server_->late_followups_discarded(), 1u);
  EXPECT_EQ(server_->reexecutions(), 0u);
  EXPECT_EQ(store_.Peek("k")->value, Value("a"));
  EXPECT_EQ(store_.VersionOf("k"), 2);
  // The queued writer was granted the lock; its retry (the crash reset its
  // connection) finds its cache stale and commits through the backup.
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("k", b_retry.exec_id));
  std::optional<LviResponse> reply;
  server_->HandleLviRequest(b_retry, [&](LviResponse r) { reply = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->validated);
  EXPECT_EQ(reply->backup_result, Value("b"));
  EXPECT_EQ(store_.Peek("k")->value, Value("b"));
  EXPECT_EQ(store_.VersionOf("k"), 3);
  EXPECT_EQ(locks_.table().active_lock_count(), 0u);
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, RecoverResetsCapacityBusyPeriod) {
  // Regression: busy_until_ survived Crash()/Recover(), so the first
  // arrivals after recovery queued behind a busy period of a server life
  // that no longer exists.
  LviServerOptions options;
  options.serving_capacity_rps = 10;  // 100 ms service time.
  LockService locks(&sim_);
  VersionedStore store;
  store.Seed("k", Value("v"));
  LviServer server(&sim_, &store, &registry_, &interp_, &locks, options);
  // Five arrivals at t=0 push busy_until_ to 500 ms.
  for (int i = 0; i < 5; ++i) {
    server.HandleLviRequest(MakeRequest("reg_get", {Value("k")},
                                        {{"k", 1, LockMode::kRead}}),
                            [](LviResponse) {});
  }
  sim_.RunFor(Millis(1));
  server.Crash();
  server.Recover();
  SimTime responded_at = 0;
  server.HandleLviRequest(MakeRequest("reg_get", {Value("k")},
                                      {{"k", 1, LockMode::kRead}}),
                          [&](LviResponse) { responded_at = sim_.Now(); });
  sim_.Run();
  // One service time (plus processing and the validation read), not the
  // pre-crash backlog's ~500 ms.
  EXPECT_GT(responded_at, 0);
  EXPECT_LT(responded_at, Millis(250));
  // The pre-crash pipelines died on the epoch check.
  EXPECT_GE(server.counters().Get("stale_epoch_dropped"), 5u);
}

TEST_F(LviServerTest, DirectRequestResolvesOwnPendingIntent) {
  // Degraded-mode fallback: the client validated a write but lost the
  // response, exhausted its LVI budget, and fell back to the direct path.
  // The server must resolve the existing intent by deterministic
  // re-execution — never run the function a second time next to it.
  store_.Seed("k", Value("v0"));
  LviRequest request = MakeRequest("reg_set", {Value("k"), Value("v1")},
                                   {{"k", 1, LockMode::kWrite}});
  const ExecutionId exec_id = request.exec_id;
  server_->HandleLviRequest(std::move(request), [](LviResponse) {});
  sim_.RunFor(Millis(50));  // Validated; the intent is pending, timer armed.
  ASSERT_FALSE(server_->idle());
  DirectRequest direct;
  direct.exec_id = exec_id;
  direct.origin = Region::kCA;
  direct.function = "reg_set";
  direct.inputs = {Value("k"), Value("v1")};
  std::optional<DirectResponse> response;
  server_->HandleDirect(std::move(direct), [&](DirectResponse r) { response = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->result, Value("v1"));
  EXPECT_EQ(server_->counters().Get("direct_resolved_intent"), 1u);
  EXPECT_EQ(server_->reexecutions(), 1u);
  EXPECT_EQ(store_.Peek("k")->value, Value("v1"));
  EXPECT_EQ(store_.VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, DirectRequestDuringReExecutionWaitsForIt) {
  // The intent timer already started re-executing when the degraded direct
  // request arrives: it waits for that run's reply instead of running the
  // function a second time.
  store_.Seed("k", Value("v0"));
  LviRequest request = MakeRequest("reg_set", {Value("k"), Value("v1")},
                                   {{"k", 1, LockMode::kWrite}});
  const ExecutionId exec_id = request.exec_id;
  server_->HandleLviRequest(std::move(request), [](LviResponse) {});
  while (server_->reexecutions() == 0 && sim_.Step()) {
  }
  DirectRequest direct;
  direct.exec_id = exec_id;
  direct.origin = Region::kCA;
  direct.function = "reg_set";
  direct.inputs = {Value("k"), Value("v1")};
  std::optional<DirectResponse> response;
  server_->HandleDirect(std::move(direct), [&](DirectResponse r) { response = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->result, Value("v1"));
  EXPECT_EQ(server_->reexecutions(), 1u);
  EXPECT_EQ(server_->counters().Get("direct_requests"), 0u);
  EXPECT_EQ(store_.VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_TRUE(server_->idle());
}

// --- Lock timing of executions at the primary ----------------------------------

TEST_F(LviServerTest, WriterQueuedBehindAStaleReaderIsGrantedAtTheReadersSnapshotRead) {
  registry_.Register(Fn("slow_get", {"k"}, {
      Read("out", In("k")),
      Compute(Millis(200)),
      Return(V("out")),
  }));
  obs::SpanCollector spans;
  server_->set_span_collector(&spans);
  store_.Seed("k", Value("v0"));  // Version 1.
  // The reader's cache is stale (version 0): validation fails, and the
  // validation read is its snapshot.
  LviRequest reader = MakeRequest("slow_get", {Value("k")}, {{"k", 0, LockMode::kRead}});
  const ExecutionId reader_id = reader.exec_id;
  std::optional<LviResponse> reader_reply;
  SimTime reader_at = 0;
  server_->HandleLviRequest(std::move(reader), [&](LviResponse r) {
    reader_reply = std::move(r);
    reader_at = sim_.Now();
  });
  sim_.RunFor(Millis(1));
  ASSERT_TRUE(locks_.table().IsReadHeldBy("k", reader_id));
  // A writer queues behind the read lock; its followup goes out with its
  // reply.
  const SimTime writer_invoke = sim_.Now();
  LviRequest writer = MakeRequest("reg_set", {Value("k"), Value("v1")},
                                  {{"k", 1, LockMode::kWrite}});
  const ExecutionId writer_id = writer.exec_id;
  std::optional<LviResponse> writer_reply;
  SimTime writer_at = 0;
  server_->HandleLviRequest(std::move(writer), [&](LviResponse r) {
    writer_reply = std::move(r);
    writer_at = sim_.Now();
    WriteFollowup followup;
    followup.exec_id = writer_id;
    followup.writes = {{"k", Value("v1")}};
    server_->HandleFollowup(std::move(followup));
  });
  sim_.Run();
  ASSERT_TRUE(reader_reply.has_value());
  ASSERT_TRUE(writer_reply.has_value());
  // The reader released its read lock at its snapshot read, one read
  // latency after its grant, with its reply: the writer was granted then,
  // not after the reader's 200 ms compute, which no longer runs here.
  SimTime reader_granted = 0;
  SimTime writer_granted = 0;
  for (const obs::Span& span : spans.spans()) {
    EXPECT_NE(span.name, "server.backup_exec");
    if (span.name == "server.lock_wait") {
      (span.lane == reader_id ? reader_granted : writer_granted) = span.start + span.duration;
    }
  }
  EXPECT_EQ(reader_at, reader_granted + store_.options().read_latency);
  EXPECT_EQ(writer_granted, reader_at);
  EXPECT_TRUE(writer_reply->validated);
  // The snapshot is the pre-writer value.
  EXPECT_FALSE(reader_reply->validated);
  EXPECT_TRUE(reader_reply->snapshot);
  ASSERT_EQ(reader_reply->fresh_items.size(), 1u);
  EXPECT_EQ(reader_reply->fresh_items[0].value, Value("v0"));
  EXPECT_EQ(reader_reply->fresh_items[0].version, 1);
  EXPECT_EQ(store_.Peek("k")->value, Value("v1"));
  EXPECT_EQ(store_.VersionOf("k"), 2);
  // The reader's result is f on that snapshot, fixed at the read point: the
  // runtime answers it one compute later.
  const SimTime reader_result_at = reader_at + Millis(200);
  const std::vector<HistoryOp> history = {
      {false, "k", reader_reply->fresh_items[0].value, 0, reader_result_at},
      {true, "k", Value("v1"), writer_invoke, writer_at},
  };
  EXPECT_TRUE(CheckRegisterHistory(history, Value("v0")).linearizable);
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, WritersBackupHoldsItsLocksAndPushesUntilItsComputeEnds) {
  registry_.Register(Fn("slow_set", {"k", "v"}, {
      Write(In("k"), In("v")),
      Compute(Millis(200)),
      Return(In("v")),
  }));
  store_.Seed("k", Value("v0"));  // Version 1; the writer's cache claims 0.
  std::vector<SimTime> pushed_at;
  server_->set_push_listener([&](CachePush) { pushed_at.push_back(sim_.Now()); });
  LviRequest request = MakeRequest("slow_set", {Value("k"), Value("v1")},
                                   {{"k", 0, LockMode::kWrite}});
  const ExecutionId exec_id = request.exec_id;
  SimTime replied_at = 0;
  server_->HandleLviRequest(std::move(request), [&](LviResponse) { replied_at = sim_.Now(); });
  // The read point (t0): admission, the validation read, the invoke overhead.
  const SimTime t0 = options_.process_delay + store_.options().read_latency +
                     options_.backup_invoke_overhead;
  sim_.RunFor(t0 + Millis(100));  // Mid-compute.
  EXPECT_EQ(server_->validations_failed(), 1u);
  EXPECT_TRUE(locks_.table().IsWriteHeldBy("k", exec_id));
  EXPECT_EQ(store_.Peek("k")->value, Value("v0"));  // Buffered, not applied.
  EXPECT_TRUE(pushed_at.empty());
  sim_.Run();
  // Apply, push, lock release and reply all happen at t0 + elapsed.
  ASSERT_EQ(pushed_at.size(), 1u);
  EXPECT_GE(pushed_at[0], t0 + Millis(200));
  EXPECT_EQ(pushed_at[0], replied_at);
  EXPECT_FALSE(locks_.table().IsWriteHeldBy("k", exec_id));
  EXPECT_EQ(store_.Peek("k")->value, Value("v1"));
  EXPECT_EQ(store_.VersionOf("k"), 2);
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, BackupsWritingAKeyTheyOnlyReadLockedLoseNoUpdate) {
  // flag_incr(k, who) increments k only while "mode" is on, and always
  // records its caller: a writer, so a failed validation runs its backup.
  // Both callers' caches still see mode off, so each predicted a read of k
  // and read-locked it; the primary has mode on, so both fresh runs write k.
  registry_.Register(Fn("flag_incr", {"k", "who"}, {
      Read("m", C("mode")),
      Read("n", In("k")),
      If(Eq(V("m"), C("on")), {
          Write(In("k"), Add(V("n"), C(int64_t{1}))),
      }),
      Write(In("who"), C("ran")),
      Compute(Millis(100)),
      Return(V("n")),
  }));
  store_.Seed("mode", Value("on"));       // Version 1; the caches claim 0.
  store_.Seed("k", Value(int64_t{0}));    // Version 1.
  std::vector<LviResponse> replies;
  for (int i = 0; i < 2; ++i) {
    const Key who = "caller" + std::to_string(i);
    server_->HandleLviRequest(MakeRequest("flag_incr", {Value("k"), Value(who)},
                                          {{who, kMissingVersion, LockMode::kWrite, true},
                                           {"k", 1, LockMode::kRead},
                                           {"mode", 0, LockMode::kRead}}),
                              [&](LviResponse r) { replies.push_back(std::move(r)); });
    sim_.RunFor(Millis(5));  // The second backup reads within the first one's compute.
  }
  sim_.Run();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_FALSE(replies[0].validated);
  EXPECT_FALSE(replies[1].validated);
  // A read lock does not cover a write, so each backup reran under a write
  // lock on k: the first once the second released its read lock to rerun,
  // the second after the first committed. The increments stack.
  EXPECT_EQ(replies[0].backup_result, Value(int64_t{0}));
  EXPECT_EQ(replies[1].backup_result, Value(int64_t{1}));
  EXPECT_EQ(store_.Peek("k")->value, Value(int64_t{2}));
  EXPECT_EQ(store_.VersionOf("k"), 3);
  EXPECT_EQ(server_->counters().Get("primary_reruns"), 2u);
  EXPECT_EQ(locks_.table().active_lock_count(), 0u);
  EXPECT_TRUE(server_->idle());
}

TEST_F(LviServerTest, IdempotencyKeyLetsOneBackupApplyAcrossACrashAndAnAcknowledgedReply) {
  // Idempotency keys come with the §5.6 deployment, whose locks live in Raft.
  LockService locks(&sim_, 3);
  ASSERT_TRUE(locks.Bootstrap());
  LviServer server(&sim_, &store_, &registry_, &interp_, &locks, options_);
  store_.Seed("k", Value("v0"));  // Version 1; the writer's cache claims 0.
  store_.Seed("other", Value("o"));
  const LviRequest request = AckingRequest("reg_set", {Value("k"), Value("v1")},
                                           {{"k", 0, LockMode::kWrite}});
  server.HandleLviRequest(request, [](LviResponse) {});
  // The validation runs once the lock's Raft commit grants it, and fails.
  const SimTime deadline = sim_.Now() + Seconds(1);
  while (server.validations_failed() == 0 && sim_.Now() < deadline && sim_.Step()) {
  }
  ASSERT_EQ(server.validations_failed(), 1u);
  // Crash between the backup's read point and its write: nothing applied.
  sim_.RunFor(options_.backup_invoke_overhead + Micros(500));
  server.Crash();
  EXPECT_EQ(store_.VersionOf("k"), 1);
  EXPECT_TRUE(locks.LeaderState()->IsWriteHeldBy("k", request.exec_id));
  server.Recover();
  // The retry is granted the lock it holds and its backup applies once.
  std::optional<LviResponse> reply;
  server.HandleLviRequest(request, [&](LviResponse r) { reply = std::move(r); });
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->backup_result, Value("v1"));
  EXPECT_EQ(store_.VersionOf("k"), 2);
  EXPECT_FALSE(locks.LeaderState()->IsWriteHeldBy("k", request.exec_id));
  EXPECT_EQ(Kept(server, "lvi_replies"), 1);
  EXPECT_EQ(Kept(server, "applied"), 1);
  // The origin's next request acknowledges the writer: its reply and its
  // idempotency key go. A further retry, reordered behind that request, is
  // refused before it can rerun the backup.
  server.HandleLviRequest(AckingRequest("reg_get", {Value("other")},
                                        {{"other", 1, LockMode::kRead}}),
                          [](LviResponse) {});
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(Kept(server, "lvi_replies"), 1);  // The reader's own reply.
  ASSERT_EQ(Kept(server, "applied"), 0);
  bool answered = false;
  server.HandleLviRequest(request, [&](LviResponse) { answered = true; });
  sim_.RunFor(Seconds(1));
  EXPECT_FALSE(answered);
  EXPECT_EQ(server.counters().Get("at_most_once_refused"), 1u);
  EXPECT_EQ(store_.VersionOf("k"), 2);  // Still applied exactly once.
  EXPECT_EQ(locks.LeaderState()->active_lock_count(), 0u);
  EXPECT_TRUE(server.idle());
}

TEST(LviServerReplicatedTest, UnanalyzableDirectExecutionLocksWhatItsFirstRunTouched) {
  Simulator sim(5);
  VersionedStore store;
  Analyzer analyzer(&HostRegistry::Standard());
  Interpreter interp(&HostRegistry::Standard());
  FunctionRegistry registry(&analyzer);
  LockService locks(&sim, 3);
  ASSERT_TRUE(locks.Bootstrap());
  LviServer server(&sim, &store, &registry, &interp, &locks, LviServerOptions{});
  // The key comes out of a host the analyzer cannot see through (§3.3).
  registry.Register(Fn("opaque_set", {"u", "v"}, {
      Let("k", IntToStr(Host("expensive_digest", {In("u")}))),
      Write(V("k"), In("v")),
      Return(In("v")),
  }));
  registry.Register(Fn("reg_set", {"k", "v"}, {
      Write(In("k"), In("v")),
      Return(In("v")),
  }));
  ASSERT_FALSE(registry.Find("opaque_set")->analyzable);
  auto run_direct = [&](const std::string& function, std::vector<Value> inputs) {
    DirectRequest request;
    request.exec_id = sim.NextId();
    request.origin = Region::kCA;
    request.function = function;
    request.inputs = std::move(inputs);
    std::optional<DirectResponse> response;
    server.HandleDirect(std::move(request), [&](DirectResponse r) { response = std::move(r); });
    sim.RunFor(Seconds(1));
    return response.has_value();
  };
  const Key key = std::to_string(
      HostRegistry::Standard().Find("expensive_digest")->fn({Value(int64_t{7})}).AsInt());
  const LogIndex before = locks.LeaderState()->last_applied();
  ASSERT_TRUE(run_direct("opaque_set", {Value(int64_t{7}), Value("x")}));
  // The first run held no locks and found the key; the rerun wrote it under
  // a write lock. The group logged one acquire and one release.
  EXPECT_EQ(server.counters().Get("primary_reruns"), 1u);
  EXPECT_EQ(locks.LeaderState()->last_applied(), before + 2);
  EXPECT_EQ(store.Peek(key)->value, Value("x"));
  // An analyzable direct execution predicts its set and runs once.
  ASSERT_TRUE(run_direct("reg_set", {Value("k"), Value("y")}));
  EXPECT_EQ(server.counters().Get("primary_reruns"), 1u);
  EXPECT_EQ(locks.LeaderState()->last_applied(), before + 4);
  EXPECT_EQ(locks.LeaderState()->TotalHeldKeys(), 0u);
  EXPECT_TRUE(locks.idle());
}


// A writer replayed without an acknowledgement (the shape of a failover
// replay) after its origin acknowledged it and its cached reply was dropped,
// while its intent is still pending, re-attaches to that intent
// (retry_intent_hit) instead of creating a second one.
class RetryIntentHitTest : public LviServerTest {};

TEST_F(RetryIntentHitTest, ReplayAfterAcknowledgementReusesThePendingIntent) {
  store_.Seed("k", Value("v0"));
  store_.Seed("other", Value("o"));
  LviRequest request = AckingRequest("reg_set", {Value("k"), Value("v1")},
                                     {{"k", 1, LockMode::kWrite}});
  LviRequest retry = request;
  retry.ack = Ack{};
  server_->HandleLviRequest(std::move(request), [](LviResponse) {});
  sim_.RunFor(Millis(50));  // Validated; the intent is pending, no followup.
  // The origin's next request acknowledges the writer: its reply goes.
  server_->HandleLviRequest(AckingRequest("reg_get", {Value("other")},
                                          {{"other", 1, LockMode::kRead}}),
                            [](LviResponse) {});
  sim_.RunFor(Millis(50));
  ASSERT_EQ(Kept(*server_, "lvi_replies"), 1);  // The reader's own reply.

  int replies = 0;
  bool validated = false;
  server_->HandleLviRequest(retry, [&](LviResponse r) {
    ++replies;
    validated = r.validated;
  });
  sim_.RunFor(Millis(50));
  EXPECT_EQ(replies, 1);
  EXPECT_TRUE(validated);
  EXPECT_EQ(server_->counters().Get("retry_intent_hit"), 1u);

  sim_.Run();  // No followup: the one intent's timer re-executes the write.
  EXPECT_EQ(server_->reexecutions(), 1u);
  EXPECT_EQ(store_.Peek("k")->value, Value("v1"));
  EXPECT_EQ(store_.VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_TRUE(server_->idle());
}

TEST_F(RetryIntentHitTest, ReplayOfABlindWriterRepinsFromTheIntentsRecord) {
  store_.Seed("k", Value("v0"));  // Version 1; the writer's cache lacks k.
  store_.Seed("other", Value("o"));
  LviRequest request = AckingRequest("reg_set", {Value("k"), Value("v1")},
                                     {{"k", kMissingVersion, LockMode::kWrite, true}});
  LviRequest retry = request;
  retry.ack = Ack{};
  std::optional<LviResponse> first;
  server_->HandleLviRequest(std::move(request), [&](LviResponse r) { first = std::move(r); });
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->validated);
  ASSERT_EQ(first->fresh_items.size(), 1u);
  EXPECT_EQ(first->fresh_items[0].key, "k");
  EXPECT_EQ(first->fresh_items[0].version, 1);
  EXPECT_EQ(server_->counters().Get("blind_repinned"), 1u);
  server_->HandleLviRequest(AckingRequest("reg_get", {Value("other")},
                                          {{"other", 1, LockMode::kRead}}),
                            [](LviResponse) {});
  sim_.RunFor(Millis(50));

  std::optional<LviResponse> replayed;
  server_->HandleLviRequest(retry, [&](LviResponse r) { replayed = std::move(r); });
  sim_.RunFor(Millis(50));
  EXPECT_EQ(server_->counters().Get("retry_intent_hit"), 1u);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(replayed->validated);
  ASSERT_EQ(replayed->fresh_items.size(), 1u);
  EXPECT_EQ(replayed->fresh_items[0].key, "k");
  EXPECT_EQ(replayed->fresh_items[0].version, 1);
  EXPECT_EQ(server_->counters().Get("blind_repinned"), 1u);  // One execution.

  sim_.Run();  // The intent's timer re-executes the write at the pin.
  EXPECT_EQ(server_->reexecutions(), 1u);
  EXPECT_EQ(store_.VersionOf("k"), 2);
  EXPECT_TRUE(server_->idle());
}

// At-most-once in the singleton server, which keeps no idempotency keys: a
// retry of a writer that arrives after its origin acknowledged it (reordered
// by jitter, or on another shard's channel) is dropped at the door, not run
// again, though the writer's reply is no longer cached.
TEST_F(LviServerTest, RetryReorderedBehindItsAcknowledgementIsDroppedNotReExecuted) {
  store_.Seed("k", Value("v0"));  // Version 1; the writer's cache claims 0.
  store_.Seed("other", Value("o"));
  const LviRequest writer = AckingRequest("reg_set", {Value("k"), Value("v1")},
                                          {{"k", 0, LockMode::kWrite}});
  std::optional<LviResponse> reply;
  server_->HandleLviRequest(writer, [&](LviResponse r) { reply = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->validated);  // The backup wrote k.
  ASSERT_EQ(store_.VersionOf("k"), 2);
  server_->HandleLviRequest(AckingRequest("reg_get", {Value("other")},
                                          {{"other", 1, LockMode::kRead}}),
                            [](LviResponse) {});
  sim_.Run();
  ASSERT_EQ(Kept(*server_, "lvi_replies"), 1);  // Only the reader's.
  const uint64_t admitted = server_->counters().Get("lvi_requests");

  // The writer's retry, and a direct fallback of it, arrive late.
  int answers = 0;
  server_->HandleLviRequest(writer, [&](LviResponse) { ++answers; });
  DirectRequest direct;
  direct.exec_id = writer.exec_id;
  direct.origin = writer.origin;
  direct.function = writer.function;
  direct.inputs = writer.inputs;
  direct.ack = writer.ack;
  server_->HandleDirect(direct, [&](DirectResponse) { ++answers; });
  sim_.Run();
  EXPECT_EQ(answers, 0);
  EXPECT_EQ(server_->counters().Get("at_most_once_refused"), 2u);
  EXPECT_EQ(server_->counters().Get("lvi_requests"), admitted);
  EXPECT_EQ(server_->counters().Get("direct_requests"), 0u);
  EXPECT_EQ(store_.VersionOf("k"), 2);  // Applied exactly once.
  EXPECT_EQ(locks_.table().active_lock_count(), 0u);
  EXPECT_TRUE(server_->idle());
}

// A restarted runtime is a new origin: its acknowledgements never reach what
// the server keeps for the ids of its previous life.
TEST_F(LviServerTest, AcknowledgementsOfANewLifeLeaveThePreviousLifesReplies) {
  store_.Seed("k", Value("v"));
  const LviRequest old_life = AckingRequest("reg_get", {Value("k")}, {{"k", 1, LockMode::kRead}});
  server_->HandleLviRequest(old_life, [](LviResponse) {});
  sim_.Run();
  LviRequest new_life = MakeRequest("reg_get", {Value("k")}, {{"k", 1, LockMode::kRead}});
  new_life.ack = Ack{1, new_life.exec_id};
  server_->HandleLviRequest(new_life, [](LviResponse) {});
  sim_.Run();
  EXPECT_EQ(Kept(*server_, "lvi_replies"), 2);
  // A replay of the old id (no acknowledgement) still finds its reply.
  LviRequest replay = old_life;
  replay.ack = Ack{};
  std::optional<LviResponse> replayed;
  server_->HandleLviRequest(replay, [&](LviResponse r) { replayed = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(replayed->validated);
  EXPECT_EQ(server_->counters().Get("duplicate_replayed"), 1u);
  EXPECT_EQ(server_->counters().Get("at_most_once_refused"), 0u);
}

}  // namespace
}  // namespace radical
