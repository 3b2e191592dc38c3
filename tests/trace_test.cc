// Tests for request tracing (the §5.5 latency components) and the LVI
// server's serving-capacity model (§5.3's singleton-bottleneck discussion).

#include <gtest/gtest.h>

#include <map>

#include "src/func/builder.h"
#include "src/radical/deployment.h"
#include "src/radical/trace.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

NetworkOptions NoJitter() {
  NetworkOptions options;
  options.jitter_stddev_frac = 0.0;
  return options;
}

class TraceTest : public ProfiledTest {
 protected:
  explicit TraceTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), sim_(6161), net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, RadicalConfig{},
                                                    DeploymentRegions());
    radical_->RegisterFunction(Fn("long_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(200)),
        Return(V("v")),
    }));
    radical_->RegisterFunction(Fn("short_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(20)),
        Return(V("v")),
    }));
    radical_->Seed("k", Value("v"));
    radical_->WarmCaches();
  }

  RequestTrace InvokeTraced(Region region, const std::string& function) {
    TraceCollector tracer;
    radical_->runtime(region).set_tracer(&tracer);
    radical_->Invoke(region, function, {Value("k")}, [](Value) {});
    sim_.Run();
    radical_->runtime(region).set_tracer(nullptr);
    EXPECT_EQ(tracer.size(), 1u);
    return tracer.traces().front();
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(TraceTest, ComponentsSumToTotal) {
  const RequestTrace trace = InvokeTraced(Region::kCA, "long_read");
  EXPECT_EQ(trace.Instantiation() + trace.FrwTime() + trace.OverlapWindow() +
                trace.Completion(),
            trace.Total());
}

PROFILE_TEST(TraceTest, InstantiationMatchesConfig) {
  const RequestTrace trace = InvokeTraced(Region::kCA, "long_read");
  const RadicalConfig& config = radical_->config();
  EXPECT_EQ(trace.Instantiation(), config.lambda_invoke + config.blob_load);
}

PROFILE_TEST(TraceTest, LongFunctionHasNoLviStall) {
  // 200 ms of execution from CA fully hides the 74 ms round trip.
  const RequestTrace trace = InvokeTraced(Region::kCA, "long_read");
  EXPECT_TRUE(trace.speculated);
  EXPECT_TRUE(trace.validated);
  EXPECT_EQ(trace.LviStall(), 0);
  // The overlap window is execution-bound.
  EXPECT_NEAR(ToMillis(trace.OverlapWindow()), 201.0, 2.0);
}

PROFILE_TEST(TraceTest, ShortFunctionFromJapanIsLviBound) {
  // The §5.4 outlier isolated: 21 ms of execution cannot hide Tokyo's 146 ms
  // round trip; the request stalls on the LVI response.
  const RequestTrace trace = InvokeTraced(Region::kJP, "short_read");
  EXPECT_TRUE(trace.validated);
  EXPECT_GT(trace.LviStall(), Millis(100));
  EXPECT_NEAR(ToMillis(trace.OverlapWindow()), 146.0 + 4.3, 3.0);
}

PROFILE_TEST(TraceTest, ValidationFailurePathTraced) {
  radical_->runtime(Region::kDE).cache().Install("k", Value("stale"), 0);
  const RequestTrace trace = InvokeTraced(Region::kDE, "long_read");
  EXPECT_FALSE(trace.validated);
  EXPECT_TRUE(trace.speculated);  // It did speculate — and was invalidated.
  EXPECT_GT(trace.Total(), Millis(300));  // Paid the backup execution.
}

PROFILE_TEST(TraceTest, DirectPathTraced) {
  radical_->RegisterFunction(Fn("opaque", {"k"}, {
      Read("v", IntToStr(Host("expensive_digest", {In("k")}))),
      Return(C(Value("done"))),
  }));
  const RequestTrace trace = InvokeTraced(Region::kCA, "opaque");
  EXPECT_TRUE(trace.direct);
  EXPECT_FALSE(trace.speculated);
  EXPECT_GT(trace.Total(), Millis(80));
}

// Regression: direct-path traces never stamp lvi_sent, which used to make
// the f^rw component negative (lvi_sent - frw_started with lvi_sent == 0)
// and the overlap window nonsense. Components must be non-negative and sum
// to the total on every path.
PROFILE_TEST(TraceTest, DirectPathComponentsNonNegativeAndSumToTotal) {
  radical_->RegisterFunction(Fn("opaque", {"k"}, {
      Read("v", IntToStr(Host("expensive_digest", {In("k")}))),
      Return(C(Value("done"))),
  }));
  const RequestTrace trace = InvokeTraced(Region::kCA, "opaque");
  ASSERT_TRUE(trace.direct);
  EXPECT_TRUE(trace.PhasesMonotonic());
  EXPECT_GE(trace.Instantiation(), 0);
  EXPECT_GE(trace.FrwTime(), 0);
  EXPECT_GE(trace.OverlapWindow(), 0);
  EXPECT_GE(trace.Completion(), 0);
  EXPECT_EQ(trace.Instantiation() + trace.FrwTime() + trace.OverlapWindow() +
                trace.Completion(),
            trace.Total());
  // The direct send is an attempt record, not a phase boundary.
  ASSERT_EQ(trace.attempts.size(), 1u);
  EXPECT_EQ(trace.attempts[0].path, AttemptPath::kDirect);
  EXPECT_EQ(trace.attempts[0].outcome, "response");
}

// Regression: a retried LVI attempt must not move the already-stamped phase
// boundaries (first-wins); the retry shows up as its own RequestAttempt.
PROFILE_TEST(TraceTest, RetryKeepsPhaseStampsAndRecordsAttempts) {
  net::DropRule rule;
  rule.kind = net::MessageKind::kLviRequest;
  rule.max_drops = 1;  // Lose exactly the first LVI request.
  net_.fabric().AddDropRule(rule);

  const RequestTrace trace = InvokeTraced(Region::kCA, "short_read");
  EXPECT_TRUE(trace.PhasesMonotonic());
  EXPECT_EQ(trace.retries, 1);
  ASSERT_EQ(trace.attempts.size(), 2u);
  EXPECT_EQ(trace.attempts[0].path, AttemptPath::kLvi);
  EXPECT_EQ(trace.attempts[0].number, 1);
  EXPECT_EQ(trace.attempts[0].outcome, "timeout");
  EXPECT_EQ(trace.attempts[1].path, AttemptPath::kLvi);
  EXPECT_EQ(trace.attempts[1].number, 2);
  EXPECT_EQ(trace.attempts[1].outcome, "response");
  // lvi_sent stayed on the FIRST transmission even though the second one
  // produced the response.
  EXPECT_EQ(trace.lvi_sent, trace.attempts[0].sent);
  EXPECT_GT(trace.attempts[1].sent, trace.attempts[0].sent);
  EXPECT_GE(trace.response_received, trace.attempts[1].sent);
  // Components still well formed across the retry.
  EXPECT_GE(trace.FrwTime(), 0);
  EXPECT_EQ(trace.Instantiation() + trace.FrwTime() + trace.OverlapWindow() +
                trace.Completion(),
            trace.Total());
}

PROFILE_TEST(TraceTest, AppendSpansEmitsPhaseAndAttemptSpans) {
  net::DropRule rule;
  rule.kind = net::MessageKind::kLviRequest;
  rule.max_drops = 1;
  net_.fabric().AddDropRule(rule);

  const RequestTrace trace = InvokeTraced(Region::kCA, "short_read");
  obs::SpanCollector spans;
  AppendSpans(trace, &spans);
  std::map<std::string, int> by_name;
  for (const obs::Span& span : spans.spans()) {
    ++by_name[span.name];
    EXPECT_GE(span.duration, 0);
    EXPECT_EQ(span.lane, trace.exec_id);
    EXPECT_EQ(span.track, obs::SpanTrack::kClient);
  }
  EXPECT_EQ(by_name["request"], 1);
  EXPECT_EQ(by_name["instantiation"], 1);
  EXPECT_EQ(by_name["lvi.attempt#1"], 1);
  EXPECT_EQ(by_name["lvi.attempt#2"], 1);
  // A null collector is a no-op, not a crash.
  AppendSpans(trace, nullptr);
}

PROFILE_TEST(TraceTest, CollectorAggregates) {
  TraceCollector tracer;
  radical_->runtime(Region::kCA).set_tracer(&tracer);
  for (int i = 0; i < 5; ++i) {
    radical_->Invoke(Region::kCA, "long_read", {Value("k")}, [](Value) {});
    sim_.Run();
  }
  radical_->Invoke(Region::kCA, "short_read", {Value("k")}, [](Value) {});
  sim_.Run();
  EXPECT_EQ(tracer.size(), 6u);
  EXPECT_EQ(tracer.ForFunction("long_read").size(), 5u);
  EXPECT_NEAR(tracer.MeanMs("long_read", &RequestTrace::Instantiation), 14.0, 0.1);
  EXPECT_DOUBLE_EQ(tracer.LviBoundFraction("long_read"), 0.0);
  EXPECT_DOUBLE_EQ(tracer.LviBoundFraction("short_read"), 1.0);
}

// --- Serving capacity (§5.3) -------------------------------------------------------

TEST(ServerCapacityTest, UnlimitedByDefault) {
  Simulator sim(7777);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalDeployment radical(&sim, &net, RadicalConfig{}, {Region::kCA});
  radical.RegisterFunction(Fn("r", {"k"}, {Read("v", In("k")), Return(V("v"))}));
  radical.Seed("k", Value("v"));
  radical.WarmCaches();
  for (int i = 0; i < 50; ++i) {
    radical.Invoke(Region::kCA, "r", {Value("k")}, [](Value) {});
  }
  sim.Run();
  EXPECT_EQ(radical.server().counters().Get("queued_arrivals"), 0u);
}

TEST(ServerCapacityTest, BurstBeyondCapacityQueues) {
  Simulator sim(8888);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalConfig config;
  config.server.serving_capacity_rps = 100;  // 10 ms service time.
  RadicalDeployment radical(&sim, &net, config, {Region::kCA});
  radical.RegisterFunction(Fn("r", {"k"}, {Read("v", In("k")), Compute(Millis(5)),
                                           Return(V("v"))}));
  radical.Seed("k", Value("v"));
  radical.WarmCaches();
  // A burst of 20 simultaneous requests: they serialize through the server
  // at 10 ms each, so the last one waits ~190 ms longer than the first.
  LatencySampler samples;
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    const SimTime start = sim.Now();
    radical.Invoke(Region::kCA, "r", {Value("k")}, [&, start](Value) {
      samples.Add(sim.Now() - start);
      ++done;
    });
  }
  sim.Run();
  EXPECT_EQ(done, 20);
  EXPECT_GT(radical.server().counters().Get("queued_arrivals"), 10u);
  // Spread between fastest and slowest ≈ 19 service times.
  EXPECT_GT(samples.PercentileMs(100) - samples.PercentileMs(0), 150.0);
}

}  // namespace
}  // namespace radical
