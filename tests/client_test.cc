// radical::Client — the redesigned request API. Submit(Request,
// RequestOptions) carries the per-request policy that used to be global
// config: retry behavior, consistency mode and trace opt-in. These tests pin
// each option's observable effect and the parity of the Invoke wrapper, on
// every deployment profile.

#include <gtest/gtest.h>

#include <optional>

#include "src/func/builder.h"
#include "src/radical/client.h"
#include "src/radical/deployment.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

class ClientTest : public ProfiledTest {
 protected:
  explicit ClientTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), net_(&sim_, LatencyMatrix::PaperDefault()) {
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, config_,
                                                    DeploymentRegions());
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

  Simulator sim_;
  Network net_;
  RadicalConfig config_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(ClientTest, SubmitWithDefaultsAnswersLikeInvoke) {
  Client client = radical_->client(Region::kCA);
  std::optional<Value> submitted;
  client.Submit(Request{"reg_read", {Value("k")}},
                [&](Outcome outcome) { submitted = std::move(outcome.result); });
  std::optional<Value> invoked;
  radical_->Invoke(Region::kCA, "reg_read", {Value("k")},
                   [&](Value result) { invoked = std::move(result); });
  sim_.Run();
  ASSERT_TRUE(submitted.has_value());
  ASSERT_TRUE(invoked.has_value());
  EXPECT_EQ(*submitted, Value("v0"));
  EXPECT_EQ(*invoked, *submitted);
  EXPECT_EQ(Counters(Region::kCA).Get("replies"), 2u);
}

PROFILE_TEST(ClientTest, RuntimeSubmitWithDefaultOptionsAnswers) {
  std::optional<Value> result;
  radical_->runtime(Region::kCA).Submit(Request{"reg_read", {Value("k")}}, RequestOptions(),
                                        [&](Outcome o) { result = std::move(o.result); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, Value("v0"));
}

PROFILE_TEST(ClientTest, DirectConsistencySkipsSpeculation) {
  Client client = radical_->client(Region::kCA);
  RequestOptions options;
  options.consistency = ConsistencyMode::kDirect;
  std::optional<Value> result;
  client.Submit(Request{"reg_write", {Value("k"), Value("v1")}}, options,
                [&](Outcome o) { result = std::move(o.result); });
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, Value("v1"));
  EXPECT_EQ(Counters(Region::kCA).Get("direct_requested"), 1u);
  EXPECT_EQ(Counters(Region::kCA).Get("speculations"), 0u);
  // The write is authoritative: a linearizable read sees it.
  std::optional<Value> read_back;
  client.Submit(Request{"reg_read", {Value("k")}},
                [&](Outcome o) { read_back = std::move(o.result); });
  sim_.Run();
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, Value("v1"));
}

PROFILE_TEST(ClientTest, PerRequestRetryPolicyOverridesConfig) {
  Client client = radical_->client(Region::kCA);

  // Drop exactly the first LVI request on the wire. The config-default
  // policy (enabled) recovers through a timeout + retry.
  net::DropRule drop_one;
  drop_one.kind = net::MessageKind::kLviRequest;
  drop_one.max_drops = 1;
  net_.fabric().AddDropRule(drop_one);
  std::optional<Value> retried;
  RequestOptions fast_retry;
  fast_retry.retry = RetryPolicy{};
  fast_retry.retry->request_timeout = Millis(300);
  client.Submit(Request{"reg_read", {Value("k")}}, fast_retry,
                [&](Outcome o) { retried = std::move(o.result); });
  sim_.Run();
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(*retried, Value("v0"));
  const uint64_t timeouts_after_first = Counters(Region::kCA).Get("timeouts");
  EXPECT_GT(timeouts_after_first, 0u);
  EXPECT_GT(Counters(Region::kCA).Get("retries"), 0u);

  // Same loss, but this request opts out of retries entirely: no timeout is
  // ever armed, so the drop leaves it pending forever instead of retrying.
  net::DropRule drop_again;
  drop_again.kind = net::MessageKind::kLviRequest;
  drop_again.max_drops = 1;
  net_.fabric().AddDropRule(drop_again);
  RequestOptions no_retry;
  no_retry.retry = RetryPolicy{};
  no_retry.retry->enabled = false;
  bool answered = false;
  client.Submit(Request{"reg_read", {Value("k")}}, no_retry,
                [&](Outcome) { answered = true; });
  sim_.Run();
  EXPECT_FALSE(answered);
  EXPECT_EQ(Counters(Region::kCA).Get("timeouts"), timeouts_after_first);
  EXPECT_EQ(Counters(Region::kCA).Get("requests"), 2u);
  EXPECT_EQ(Counters(Region::kCA).Get("replies"), 1u);
}

PROFILE_TEST(ClientTest, TraceOptOutRecordsNothing) {
  TraceCollector collector;
  radical_->runtime(Region::kCA).set_tracer(&collector);
  Client client = radical_->client(Region::kCA);

  RequestOptions untraced;
  untraced.trace = false;
  std::optional<Value> first;
  client.Submit(Request{"reg_read", {Value("k")}}, untraced,
                [&](Outcome o) { first = std::move(o.result); });
  sim_.Run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(collector.size(), 0u);

  // Opt-in (the default) still records.
  std::optional<Value> second;
  client.Submit(Request{"reg_read", {Value("k")}},
                [&](Outcome o) { second = std::move(o.result); });
  sim_.Run();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(collector.size(), 1u);
  EXPECT_TRUE(collector.traces().front().PhasesMonotonic());
}

}  // namespace
}  // namespace radical
