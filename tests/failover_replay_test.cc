// A session whose PoP crashes replays its unanswered requests at another
// PoP, as direct requests with their original ids (src/radical/session.h).
// These tests pin the replay of a writer whose LVI request validated and
// whose followup committed before the crash, while the LVI reply never
// reached the PoP. The server holds no result for it but the one the
// followup carried: the replay must get that result, and f must not run a
// second time. Both followup timings are covered: one parked until its
// validation, and one that arrives after validation armed the intent.

#include <gtest/gtest.h>

#include <optional>

#include "src/func/builder.h"
#include "src/radical/deployment.h"
#include "src/radical/session.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

NetworkOptions NoJitter() {
  NetworkOptions options;
  options.jitter_stddev_frac = 0.0;
  return options;
}

// The compute of an increment whose speculation ends before its LVI request
// reaches the server: the followup is parked until validation.
constexpr SimDuration kParkedCompute = 0;
// Longer than the CA<->VA round trip: validation arms the intent, and the
// followup applies against it.
constexpr SimDuration kAfterValidationCompute = Millis(150);

struct ReplayOutcome {
  int finals = 0;
  std::optional<Value> result;
};

// A CA session increments `k` from 0. The LVI reply to CA is lost, and CA
// crashes once the followup has committed (version 2); the session fails
// over and replays the increment.
ReplayOutcome IncrementAcrossCrash(RadicalDeployment* radical, Simulator* sim, Network* net,
                                   SimDuration compute) {
  radical->RegisterFunction(Fn("incr", {"k"}, {
      Read("n", In("k")),
      Write(In("k"), Add(V("n"), C(int64_t{1}))),
      Compute(compute),
      Return(Add(V("n"), C(int64_t{1}))),
  }));
  radical->Seed("k", Value(int64_t{0}));
  radical->WarmCaches();
  sim->RunFor(Millis(300));  // A replicated deployment elects its lock leaders.
  net::DropRule lost_reply;
  lost_reply.kind = net::MessageKind::kLviResponse;
  lost_reply.to = radical->runtime(Region::kCA).endpoint().id();
  net->fabric().AddDropRule(lost_reply);

  Session session = radical->OpenSession(Region::kCA);
  ReplayOutcome outcome;
  session.Submit(Request{"incr", {Value("k")}}, [&outcome](Outcome o) {
    if (!o.preview()) {
      ++outcome.finals;
      outcome.result = o.result;
    }
  });
  while (radical->primary().VersionOf("k") < 2 && sim->Step()) {
  }
  radical->CrashRuntime(Region::kCA);
  sim->RunFor(Seconds(5));
  EXPECT_EQ(session.failovers(), 1u);
  return outcome;
}

class FailoverReplayTest : public ProfiledTest {
 protected:
  explicit FailoverReplayTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), sim_(29), net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, RadicalConfig{},
                                                    DeploymentRegions());
  }

  // The increment took effect once, and the session saw its result once.
  void ExpectAppliedAndAnsweredOnce(const ReplayOutcome& outcome) {
    EXPECT_EQ(outcome.finals, 1);
    EXPECT_EQ(outcome.result, Value(int64_t{1}));
    EXPECT_EQ(radical_->primary().Peek("k")->value, Value(int64_t{1}));
    EXPECT_EQ(radical_->primary().VersionOf("k"), 2);
    const obs::MetricsScope server = radical_->server().counters();
    EXPECT_EQ(server.Get("followup_applied"), 1u);
    EXPECT_EQ(server.Get("duplicate_replayed"), 1u);  // The replay, from the followup's reply.
    EXPECT_EQ(server.Get("direct_requests"), 0u);     // f never ran at the primary.
    EXPECT_EQ(radical_->server().reexecutions(), 0u);
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(FailoverReplayTest, ReplayOfAWriterWhoseParkedFollowupCommittedGetsItsResult) {
  const ReplayOutcome outcome =
      IncrementAcrossCrash(radical_.get(), &sim_, &net_, kParkedCompute);
  EXPECT_EQ(radical_->server().counters().Get("followup_parked"), 1u);
  ExpectAppliedAndAnsweredOnce(outcome);
}

PROFILE_TEST(FailoverReplayTest, ReplayOfAWriterWhoseFollowupCommittedAfterValidationGetsItsResult) {
  const ReplayOutcome outcome =
      IncrementAcrossCrash(radical_.get(), &sim_, &net_, kAfterValidationCompute);
  EXPECT_EQ(radical_->server().counters().Get("followup_parked"), 0u);
  ExpectAppliedAndAnsweredOnce(outcome);
}

// With replicated locks the idempotency key already kept the second run
// from writing; the replay must also get the committed result, not the
// result of a run whose writes were refused.
TEST(FailoverReplayReplicatedTest, ReplayOfAWriterWhoseFollowupCommittedGetsItsResult) {
  for (const SimDuration compute : {kParkedCompute, kAfterValidationCompute}) {
    SCOPED_TRACE(compute == kParkedCompute ? "parked followup" : "followup after validation");
    Simulator sim(29);
    Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
    RadicalDeployment radical(&sim, &net, RadicalConfig{}, DeploymentRegions(),
                              /*replicated_locks=*/3);
    const ReplayOutcome outcome = IncrementAcrossCrash(&radical, &sim, &net, compute);
    EXPECT_EQ(outcome.finals, 1);
    EXPECT_EQ(outcome.result, Value(int64_t{1}));
    EXPECT_EQ(radical.primary().Peek("k")->value, Value(int64_t{1}));
    EXPECT_EQ(radical.primary().VersionOf("k"), 2);
    const obs::MetricsScope server = radical.server().counters();
    EXPECT_EQ(server.Get("duplicate_replayed"), 1u);
    EXPECT_EQ(server.Get("direct_requests"), 0u);
    EXPECT_EQ(server.Get("at_most_once_refused"), 0u);
  }
}

}  // namespace
}  // namespace radical
