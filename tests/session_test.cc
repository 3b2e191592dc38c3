// radical::Session — the consistency-spectrum client surface. These tests pin
// the three things a session buys over radical::Client (Correctables-style
// preview/final callbacks, read-your-writes / monotonic reads against the
// near-user cache, SwiftCloud-style failover to another PoP), plus the
// determinism guarantee that sessionless kLinearizable defaults reproduce
// the same schedule run after run and never touch the session machinery.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/func/builder.h"
#include "src/radical/client.h"
#include "src/radical/deployment.h"
#include "src/radical/session.h"

namespace radical {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : net_(&sim_, LatencyMatrix::PaperDefault()) {
    radical_ = std::make_unique<RadicalDeployment>(&sim_, &net_, config_, DeploymentRegions());
    radical_->RegisterFunction(Fn("reg_read", {"k"}, {
        Read("v", In("k")),
        Return(V("v")),
    }));
    radical_->RegisterFunction(Fn("reg_write", {"k", "v"}, {
        Write(In("k"), In("v")),
        Return(In("v")),
    }));
    radical_->Seed("k", Value("v0"));
    radical_->WarmCaches();
  }

  obs::MetricsScope Counters(Region region) { return radical_->runtime(region).counters(); }

  // Keeps `region`'s cache behind the primary: drops every cache push toward
  // its runtime, so only a failed validation can repair it.
  void DropCachePushesTo(Region region) {
    net::DropRule rule;
    rule.kind = net::MessageKind::kCachePush;
    rule.to = radical_->runtime(region).endpoint().id();
    net_.fabric().AddDropRule(rule);
  }

  Simulator sim_;
  Network net_;
  RadicalConfig config_;
  std::unique_ptr<RadicalDeployment> radical_;
};

// Preview-then-final ordering on a warm cache: the callback fires exactly
// twice — kPreview strictly before the final kOk, both carrying the cached
// value (validation confirms the speculation).
TEST_F(SessionTest, PreviewArrivesStrictlyBeforeConfirmedFinal) {
  Client client = radical_->client(Region::kJP);
  RequestOptions options;
  options.consistency = ConsistencyMode::kPreviewThenFinal;
  std::vector<RequestStatus> statuses;
  std::optional<SimTime> preview_at;
  std::optional<SimTime> final_at;
  client.Submit(Request{"reg_read", {Value("k")}}, options, [&](Outcome outcome) {
    statuses.push_back(outcome.status);
    if (outcome.preview()) {
      EXPECT_EQ(outcome.result, Value("v0"));
      preview_at = sim_.Now();
    } else {
      EXPECT_EQ(outcome.result, Value("v0"));
      final_at = sim_.Now();
    }
  });
  sim_.Run();

  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0], RequestStatus::kPreview);
  EXPECT_EQ(statuses[1], RequestStatus::kOk);
  ASSERT_TRUE(preview_at.has_value() && final_at.has_value());
  // The preview is the whole point: it lands at local-execution latency,
  // strictly before the validation round trip resolves the final.
  EXPECT_LT(*preview_at, *final_at);
  EXPECT_EQ(Counters(Region::kJP).Get("previews_delivered"), 1u);
  EXPECT_EQ(Counters(Region::kJP).Get("preview_confirmed"), 1u);
}

// A preview computed against a stale cache is followed by exactly one
// kAborted final carrying the authoritative (different) value — the abort is
// of the speculation, not the request.
TEST_F(SessionTest, StalePreviewResolvesToSingleAbortedFinal) {
  // Another region's client moves the primary past kCA's warm cache copy.
  DropCachePushesTo(Region::kCA);
  radical_->client(Region::kDE).Submit(Request{"reg_write", {Value("k"), Value("v1")}},
                                       [](Outcome) {});
  sim_.Run();

  Client client = radical_->client(Region::kCA);
  RequestOptions options;
  options.consistency = ConsistencyMode::kPreviewThenFinal;
  std::vector<Outcome> outcomes;
  client.Submit(Request{"reg_read", {Value("k")}}, options,
                [&](Outcome outcome) { outcomes.push_back(outcome); });
  sim_.Run();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, RequestStatus::kPreview);
  EXPECT_EQ(outcomes[0].result, Value("v0"));  // Tentative, from the stale cache.
  EXPECT_EQ(outcomes[1].status, RequestStatus::kAborted);
  EXPECT_EQ(outcomes[1].result, Value("v1"));  // Authoritative, from the backup.
  EXPECT_TRUE(outcomes[1].executed());
  EXPECT_EQ(Counters(Region::kCA).Get("preview_aborted"), 1u);
}

// Read-your-writes across a PoP failure: the session writes at its home PoP,
// the PoP crashes, and the re-bound (colder) cache still answers the read
// with the session's own write — the floor forces a validated read instead of
// previewing the stale copy.
TEST_F(SessionTest, ReadYourWritesSurvivesFailoverToColderCache) {
  // The session fails over from kCA to the next region, kIE.
  DropCachePushesTo(Region::kIE);
  Session session = radical_->OpenSession(Region::kCA);
  std::optional<Value> written;
  session.Submit(Request{"reg_write", {Value("k"), Value("v1")}}, [&](Outcome outcome) {
    if (!outcome.preview()) {
      written = outcome.result;
    }
  });
  sim_.Run();
  ASSERT_EQ(written, Value("v1"));
  EXPECT_GT(session.FloorOf("k"), 0);

  // Kill the home PoP. Every other cache still holds the pre-write copy.
  radical_->CrashRuntime(Region::kCA);
  EXPECT_EQ(session.failovers(), 1u);
  EXPECT_NE(session.region(), Region::kCA);

  std::vector<Outcome> outcomes;
  session.Submit(Request{"reg_read", {Value("k")}},
                 [&](Outcome outcome) { outcomes.push_back(outcome); });
  sim_.Run();

  // No stale preview fired: the below-floor cache read upgraded to a
  // validated read, and the final carries the session's own write.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].result, Value("v1"));
  EXPECT_EQ(session.stale_upgrades(), 1u);
  EXPECT_EQ(Counters(session.region()).Get("session_stale_upgrade"), 1u);
  EXPECT_EQ(session.unacked(), 0u);
}

// A blind write reads nothing, so a cache copy below the session's floor
// cannot show the session an older state: after failing over to a colder
// cache, the session's overwrite of its own key speculates and validates.
TEST_F(SessionTest, BlindWriteBelowTheFloorStillSpeculates) {
  DropCachePushesTo(Region::kIE);
  Session session = radical_->OpenSession(Region::kCA);
  std::optional<Value> written;
  session.Submit(Request{"reg_write", {Value("k"), Value("v1")}}, [&](Outcome outcome) {
    if (!outcome.preview()) {
      written = outcome.result;
    }
  });
  sim_.Run();
  ASSERT_EQ(written, Value("v1"));
  ASSERT_EQ(session.FloorOf("k"), 2);

  radical_->CrashRuntime(Region::kCA);
  ASSERT_EQ(session.region(), Region::kIE);
  ASSERT_EQ(radical_->runtime(Region::kIE).cache().VersionOf("k"), 1);  // Below the floor.

  std::vector<Outcome> outcomes;
  session.Submit(Request{"reg_write", {Value("k"), Value("v2")}},
                 [&](Outcome outcome) { outcomes.push_back(outcome); });
  sim_.Run();

  ASSERT_EQ(outcomes.size(), 2u);  // The speculation's preview, then its final.
  EXPECT_EQ(outcomes[0].status, RequestStatus::kPreview);
  EXPECT_EQ(outcomes[1].status, RequestStatus::kOk);  // Confirmed, not aborted.
  EXPECT_EQ(outcomes[1].result, Value("v2"));
  EXPECT_EQ(session.stale_upgrades(), 0u);
  EXPECT_EQ(Counters(Region::kIE).Get("session_stale_upgrade"), 0u);
  EXPECT_EQ(Counters(Region::kIE).Get("speculations"), 1u);
  EXPECT_EQ(radical_->server().validations_failed(), 0u);
  EXPECT_EQ(radical_->primary().VersionOf("k"), 3);
  EXPECT_EQ(radical_->runtime(Region::kIE).cache().VersionOf("k"), 3);
  EXPECT_EQ(session.FloorOf("k"), 3);
}

// Monotonic reads across failover: once the session has observed version N at
// one PoP, a re-bind to a PoP whose cache is older than N must not preview or
// answer with the older state.
TEST_F(SessionTest, MonotonicReadsHoldAcrossFailover) {
  // A sessionless writer at kCA advances the primary AND kCA's cache; the
  // failover target kIE's cache stays at the seeded version.
  DropCachePushesTo(Region::kIE);
  radical_->client(Region::kCA).Submit(Request{"reg_write", {Value("k"), Value("v1")}},
                                       [](Outcome) {});
  sim_.Run();

  Session session = radical_->OpenSession(Region::kCA);
  std::optional<Value> first;
  session.Submit(Request{"reg_read", {Value("k")}}, [&](Outcome outcome) {
    if (!outcome.preview()) {
      first = outcome.result;
    }
  });
  sim_.Run();
  ASSERT_EQ(first, Value("v1"));  // Observed the fresh version at kCA.
  const Version floor = session.FloorOf("k");
  EXPECT_GT(floor, 0);

  radical_->CrashRuntime(Region::kCA);
  ASSERT_EQ(session.failovers(), 1u);

  // The new PoP's cache sits below the session's floor for "k".
  std::vector<Outcome> outcomes;
  session.Submit(Request{"reg_read", {Value("k")}},
                 [&](Outcome outcome) { outcomes.push_back(outcome); });
  sim_.Run();

  ASSERT_EQ(outcomes.size(), 1u);  // Upgraded read: no preview at all.
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].result, Value("v1"));  // Never regresses to v0.
  EXPECT_EQ(session.stale_upgrades(), 1u);
  EXPECT_GE(session.FloorOf("k"), floor);
}

// A crash with a request in flight: the session replays it on the new PoP
// reusing the original ExecutionId, the server's idempotency machinery
// resolves it exactly once, and the caller sees exactly one final.
TEST_F(SessionTest, InFlightRequestReplayedExactlyOnceAcrossCrash) {
  Session session = radical_->OpenSession(Region::kCA);
  int finals = 0;
  std::optional<Value> result;
  session.Submit(Request{"reg_write", {Value("k"), Value("v1")}}, [&](Outcome outcome) {
    if (!outcome.preview()) {
      ++finals;
      result = outcome.result;
    }
  });
  // Crash while the LVI request is on the WAN: nothing has answered yet.
  sim_.Schedule(Millis(5), [&] { radical_->CrashRuntime(Region::kCA); });
  sim_.Run();

  EXPECT_EQ(session.failovers(), 1u);
  EXPECT_EQ(finals, 1);
  EXPECT_EQ(result, Value("v1"));
  EXPECT_EQ(session.unacked(), 0u);
  EXPECT_EQ(Counters(session.region()).Get("session_failover_in"), 1u);
  // The write took effect exactly once: a blind write of the same value
  // applied twice reads back the same, but moves the version twice.
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);
  std::optional<Value> read_back;
  session.Submit(Request{"reg_read", {Value("k")}}, [&](Outcome outcome) {
    if (!outcome.preview()) {
      read_back = outcome.result;
    }
  });
  sim_.Run();
  EXPECT_EQ(read_back, Value("v1"));
}

// A restarted runtime is a new origin and never acknowledges the ids of its
// previous life. A failover replay of a request the server answered before
// the crash resolves from the reply cached for it, exactly once, even when
// it arrives after the restarted runtime's new requests have acknowledged
// ids past the replayed one.
TEST_F(SessionTest, FailoverReplayResolvesFromTheCachedReplyAfterTheCrashedRuntimeRestarts) {
  Session session = radical_->OpenSession(Region::kCA);
  // The write runs at the primary, but its response never reaches CA.
  net::DropRule lost_response;
  lost_response.kind = net::MessageKind::kDirectResponse;
  lost_response.to = radical_->runtime(Region::kCA).endpoint().id();
  net_.fabric().AddDropRule(lost_response);
  // The session fails over to IE (next in the deployment's region order);
  // its replay's first attempt is lost, so its retry arrives after CA's new
  // life has acknowledged.
  net::DropRule lost_replay;
  lost_replay.kind = net::MessageKind::kDirectRequest;
  lost_replay.from = radical_->runtime(Region::kIE).endpoint().id();
  lost_replay.max_drops = 1;
  net_.fabric().AddDropRule(lost_replay);
  RequestOptions direct;
  direct.consistency = ConsistencyMode::kDirect;
  int finals = 0;
  std::optional<Value> result;
  session.Submit(Request{"reg_write", {Value("k"), Value("v1")}}, direct, [&](Outcome outcome) {
    if (!outcome.preview()) {
      ++finals;
      result = outcome.result;
    }
  });
  sim_.RunFor(Millis(500));
  const obs::MetricsScope server = radical_->server().counters();
  ASSERT_EQ(server.Get("direct_requests"), 1u);
  ASSERT_EQ(radical_->primary().VersionOf("k"), 2);
  radical_->CrashRuntime(Region::kCA);
  ASSERT_EQ(session.region(), Region::kIE);
  radical_->RecoverRuntime(Region::kCA);
  int fresh = 0;
  for (int i = 0; i < 3; ++i) {
    radical_->client(Region::kCA).Submit(Request{"reg_read", {Value("k")}}, RequestOptions(),
                                         [&](Outcome outcome) { fresh += outcome.ok() ? 1 : 0; });
  }
  sim_.Run();

  EXPECT_EQ(fresh, 3);
  EXPECT_EQ(finals, 1);
  EXPECT_EQ(result, Value("v1"));
  EXPECT_EQ(session.unacked(), 0u);
  EXPECT_EQ(Counters(Region::kIE).Get("retries"), 1u);
  // The replay found the reply; the write ran once.
  EXPECT_EQ(server.Get("duplicate_replayed"), 1u);
  EXPECT_EQ(server.Get("direct_requests"), 1u);
  EXPECT_EQ(server.Get("at_most_once_refused"), 0u);
  EXPECT_EQ(radical_->primary().VersionOf("k"), 2);
}

// Submissions against a dead runtime (no session) complete kRejected instead
// of hanging; a recovered runtime serves again.
TEST_F(SessionTest, DeadRuntimeRejectsAndRecoveredRuntimeServes) {
  radical_->CrashRuntime(Region::kJP);
  std::optional<RequestStatus> status;
  radical_->client(Region::kJP).Submit(Request{"reg_read", {Value("k")}},
                                       RequestOptions(),
                                       [&](Outcome outcome) { status = outcome.status; });
  sim_.Run();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, RequestStatus::kRejected);
  EXPECT_EQ(Counters(Region::kJP).Get("rejected_runtime_down"), 1u);

  radical_->RecoverRuntime(Region::kJP);
  radical_->WarmCaches();  // The crash wiped the cache; rewarm.
  std::optional<Value> result;
  radical_->client(Region::kJP).Submit(Request{"reg_read", {Value("k")}},
                                       RequestOptions(),
                                       [&](Outcome o) { result = std::move(o.result); });
  sim_.Run();
  EXPECT_EQ(result, Value("v0"));
}

// --- Determinism pin -------------------------------------------------------

// Runs the mixed social workload through Client::Submit at kLinearizable
// defaults and fingerprints everything observable: the schedule, counters,
// and final store state.
std::string RunFingerprint(uint64_t seed) {
  Simulator sim(seed);
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalDeployment radical(&sim, &net, RadicalConfig{}, DeploymentRegions());
  const AppSpec app = MakeSocialApp();
  app.RegisterAll(&radical);
  app.seed(&radical);
  radical.WarmCaches();
  WorkloadFn workload = app.make_workload();
  Rng rng(seed * 13 + 1);
  std::ostringstream fingerprint;
  int completed = 0;
  for (int i = 0; i < 120; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    RequestSpec spec = workload(rng);
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(3)));
    sim.Schedule(at, [&, region, spec = std::move(spec)]() mutable {
      const SimTime start = sim.Now();
      Client client = radical.client(region);
      Request request{spec.function, std::move(spec.inputs)};
      client.Submit(std::move(request), [&, start](Outcome outcome) {
        fingerprint << (sim.Now() - start) << ":" << outcome.result.StableHash() << ";";
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

TEST(SessionDeterminismTest, LinearizableDefaultsReproducibleAndSessionFree) {
  const std::string run = RunFingerprint(4242);
  // The pinned schedule is reproducible.
  EXPECT_EQ(run, RunFingerprint(4242));
  // Sessionless defaults never touch the session machinery.
  EXPECT_EQ(run.find("session_"), std::string::npos);
}

}  // namespace
}  // namespace radical
