// Overload control: bounded admission queues and deadline-aware shedding —
// plus regression pins for the saturation-amplifying bugs fixed alongside
// them (reply-cache hits charging a full admission slot, per-trace attempt
// records growing without bound across a long partition, and serving
// capacities above the tick rate truncating to an unlimited server).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/analysis/registry.h"
#include "src/check/linearizability.h"
#include "src/func/builder.h"
#include "src/radical/client.h"
#include "src/radical/deployment.h"

namespace radical {
namespace {

class OverloadTest : public ::testing::Test {
 protected:
  void Build(const RadicalConfig& config) {
    net_ = std::make_unique<Network>(&sim_, LatencyMatrix::PaperDefault());
    radical_ = std::make_unique<RadicalDeployment>(&sim_, net_.get(), config,
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

  void AddDrop(net::MessageKind kind, double probability, uint64_t max_drops = 0) {
    net::DropRule rule;
    rule.kind = kind;
    rule.probability = probability;
    rule.max_drops = max_drops;
    net_->fabric().AddDropRule(rule);
  }

  obs::MetricsScope Counters(Region region) { return radical_->runtime(region).counters(); }

  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<RadicalDeployment> radical_;
};

// Satellite regression: a retried request whose reply is already cached is a
// lookup, not an execution — it must answer after the parse cost only, not
// consume an admission slot. With a 1 req/s server the old path charged the
// replay a full one-second service time, so the reply-time bound below
// separates the two behaviours by ~1 s.
TEST_F(OverloadTest, ReplyCacheHitSkipsAdmissionSlot) {
  RadicalConfig config;
  config.server.serving_capacity_rps = 1;  // ServiceTime = 1 virtual second.
  Build(config);
  // Lose the first response on the wire: the retry finds the cached reply.
  AddDrop(net::MessageKind::kLviResponse, 1.0, 1);

  Client client = radical_->client(Region::kCA);
  std::optional<SimTime> replied_at;
  client.Submit(Request{"reg_read", {Value("k")}}, [&](Outcome outcome) {
    EXPECT_EQ(outcome.result, Value("v0"));
    replied_at = sim_.Now();
  });
  sim_.Run();

  ASSERT_TRUE(replied_at.has_value());
  EXPECT_EQ(Counters(Region::kCA).Get("replies"), 1u);
  EXPECT_EQ(Counters(Region::kCA).Get("timeouts"), 1u);
  const obs::MetricsScope server = radical_->server().counters();
  EXPECT_EQ(server.Get("lvi_requests"), 1u);  // One admission, not two.
  EXPECT_EQ(server.Get("duplicate_replayed"), 1u);
  // First attempt serves at ~1.05 s (dropped), the retry leaves at the
  // 1.2 s timeout and replays the cache within one WAN round trip. Charging
  // the replay an admission slot would push this past 2.2 s.
  EXPECT_LT(*replied_at, Millis(1600));
}

// Satellite regression: a request stuck behind a long partition retries its
// direct path indefinitely; the trace must cap its stored attempt records at
// kMaxStoredAttempts while attempts_total / attempts_dropped keep the full
// tally (the old trace grew one record per retry for the outage's life).
TEST_F(OverloadTest, TraceCapBoundsAttemptRecordsAcrossLongPartition) {
  RadicalConfig config;
  config.retry.request_timeout = Millis(100);
  config.retry.backoff = 1.0;  // Flat retry cadence: one attempt per 100 ms.
  config.retry.max_lvi_attempts = 2;
  Build(config);
  TraceCollector collector;
  radical_->runtime(Region::kCA).set_tracer(&collector);
  // Black-hole both request paths for the next 60 transmissions each, then
  // heal: the request degrades to direct and keeps retrying until the
  // partition lifts.
  AddDrop(net::MessageKind::kLviRequest, 1.0, 60);
  AddDrop(net::MessageKind::kDirectRequest, 1.0, 60);

  Client client = radical_->client(Region::kCA);
  std::optional<Value> result;
  client.Submit(Request{"reg_read", {Value("k")}},
                [&](Outcome o) { result = std::move(o.result); });
  sim_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, Value("v0"));
  ASSERT_EQ(collector.size(), 1u);
  const RequestTrace& trace = collector.traces().front();
  EXPECT_GT(trace.attempts_total, kMaxStoredAttempts);
  EXPECT_LE(trace.attempts.size(), kMaxStoredAttempts);
  EXPECT_EQ(trace.attempts.size() + trace.attempts_dropped, trace.attempts_total);
  // Eviction drops the oldest records: the attempt that finally answered is
  // still stored, resolved, and last.
  ASSERT_FALSE(trace.attempts.empty());
  EXPECT_EQ(trace.attempts.back().outcome, "response");
}

// Tentpole: with a bounded admission queue, a flood beyond capacity is
// answered by early kOverloaded rejections (with a drain hint) instead of
// unbounded queueing — and the queue depth provably never exceeds the limit.
TEST_F(OverloadTest, BoundedAdmissionQueueRejectsEarlyWithRetryAfter) {
  RadicalConfig config;
  config.server.serving_capacity_rps = 100;  // 10 ms per request.
  config.server.admission_queue_limit = 8;
  Build(config);

  Client client = radical_->client(Region::kCA);
  RequestOptions options;
  options.retry = RetryPolicy{};
  options.retry->enabled = false;  // Surface each verdict, no riding it out.
  options.trace = false;
  int ok = 0;
  int rejected = 0;
  SimDuration max_retry_after = 0;
  const int total = 60;
  for (int i = 0; i < total; ++i) {
    client.Submit(Request{"reg_read", {Value("k")}}, options, [&](Outcome outcome) {
      if (outcome.ok()) {
        ++ok;
      } else {
        EXPECT_EQ(outcome.status, RequestStatus::kRejected);
        ++rejected;
        max_retry_after = std::max(max_retry_after, outcome.retry_after);
      }
    });
  }
  sim_.Run();

  EXPECT_EQ(ok + rejected, total);
  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0);
  const obs::MetricsScope server = radical_->server().counters();
  EXPECT_EQ(server.Get("rejected_overload"), static_cast<uint64_t>(rejected));
  const int64_t peak = server.gauge("queue_depth_peak")->value();
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, 8);
  // Rejections carried the backlog's drain time as a hint.
  EXPECT_GT(max_retry_after, 0);
  EXPECT_EQ(Counters(Region::kCA).Get("rejected_by_server"),
            static_cast<uint64_t>(rejected));
  EXPECT_EQ(Counters(Region::kCA).Get("rejected_replies"),
            static_cast<uint64_t>(rejected));
}

// A write rejected for overload has no pipeline at the server to hold its
// followup. Whether its speculation ends before the rejection comes back
// (reg_write: the followup is sent and discarded) or while the retry waits
// out the backpressure hint (slow_write: the followup stays home), the
// followup leaves again with the validated reply, so the write lands
// without waiting for the intent timer.
TEST_F(OverloadTest, WriteRejectedForOverloadShipsItsFollowupAfterTheRetryValidates) {
  RadicalConfig config;
  config.server.serving_capacity_rps = 10;  // 100 ms per request.
  config.server.admission_queue_limit = 1;
  Build(config);
  radical_->RegisterFunction(Fn("slow_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Compute(Millis(200)),
      Return(In("v")),
  }));
  Version version = 1;
  for (const char* function : {"reg_write", "slow_write"}) {
    // VA's read occupies the server when CA's write arrives ~30 ms later,
    // so the write is rejected, and its retry waits out the 1.2 s attempt
    // timeout.
    radical_->Invoke(Region::kVA, "reg_read", {Value("k")}, [](Value) {});
    Value result;
    radical_->Invoke(Region::kCA, function, {Value("k"), Value(function)},
                     [&](Value v) { result = std::move(v); });
    sim_.Run();
    ++version;
    EXPECT_EQ(result, Value(function));
    EXPECT_EQ(radical_->primary().VersionOf("k"), version) << function;
    EXPECT_EQ(radical_->server().reexecutions(), 0u) << function;
    EXPECT_TRUE(radical_->server().idle()) << function;
  }
  EXPECT_EQ(Counters(Region::kCA).Get("rejected_by_server"), 2u);
  EXPECT_EQ(radical_->server().counters().Get("followup_applied"), 2u);
}

// Tentpole: every deadlined request completes by its deadline — early
// (server sheds work it cannot finish in time, the client maps the shed to
// kRejected) or exactly at it (the client-side watchdog) — and shedding
// happens at admission, before a service slot is burned on dead work.
TEST_F(OverloadTest, DeadlinedRequestsCompleteByDeadlineAndShedEarly) {
  RadicalConfig config;
  config.server.serving_capacity_rps = 50;  // 20 ms per request.
  Build(config);

  Client client = radical_->client(Region::kCA);
  RequestOptions options;
  options.retry = RetryPolicy{};
  options.retry->enabled = false;
  options.trace = false;
  options.deadline = Millis(200);
  int ok = 0;
  int rejected = 0;
  int deadline_exceeded = 0;
  SimTime latest_completion = 0;
  const int total = 40;
  for (int i = 0; i < total; ++i) {
    client.Submit(Request{"reg_read", {Value("k")}}, options, [&](Outcome outcome) {
      latest_completion = std::max(latest_completion, sim_.Now());
      switch (outcome.status) {
        case RequestStatus::kOk:
          ++ok;
          break;
        case RequestStatus::kRejected:
          ++rejected;
          break;
        case RequestStatus::kDeadlineExceeded:
          ++deadline_exceeded;
          break;
        case RequestStatus::kPreview:
        case RequestStatus::kAborted:
          ADD_FAILURE() << "unexpected status for a linearizable request";
          break;
      }
    });
  }
  sim_.Run();

  EXPECT_EQ(ok + rejected + deadline_exceeded, total);
  EXPECT_GT(ok, 0);                         // The server is not just refusing.
  EXPECT_GT(rejected + deadline_exceeded, 0);  // The overload actually bit.
  // The invariant: no completion fires after the (absolute) deadline.
  EXPECT_LE(latest_completion, Millis(200));
  const obs::MetricsScope server = radical_->server().counters();
  EXPECT_GT(server.Get("shed_admission"), 0u);
  EXPECT_GE(server.Get("shed_total"), server.Get("shed_admission"));
  EXPECT_EQ(Counters(Region::kCA).Get("deadline_exceeded_replies"),
            static_cast<uint64_t>(deadline_exceeded));
}

// Backpressure under message loss stays consistent: with a bounded queue, a
// same-instant burst forcing rejections, and 10% request loss on both paths,
// every op is answered exactly once, kRejected ops provably never executed
// (only backpressure replies produce kRejected here, and a rejected
// admission runs nothing), and the kOk history is linearizable.
TEST_F(OverloadTest, FaultSweepWithSheddingStaysLinearizable) {
  RadicalConfig config;
  config.server.serving_capacity_rps = 200;  // 5 ms per request.
  config.server.admission_queue_limit = 16;
  // Generous vs. the bounded backlog (16 * 5 ms): a timeout implies the
  // attempt was dropped on the wire, never that a served response is late —
  // so a kRejected completion cannot hide an executed write.
  config.retry.request_timeout = Millis(400);
  config.retry.max_lvi_attempts = 3;
  Build(config);
  AddDrop(net::MessageKind::kLviRequest, 0.1);
  AddDrop(net::MessageKind::kDirectRequest, 0.1);

  HistoryRecorder history;
  Rng rng(424242);
  int unique = 0;
  int completions = 0;
  int rejected = 0;
  // The brute-force checker handles <= 64 ops per key; the burst trades a
  // few background ops for guaranteed queue overflow within that budget.
  const int background_ops = 30;
  const int burst_ops = 25;
  for (int i = 0; i < background_ops; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const bool is_write = rng.NextBool(0.5);
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(6)));
    sim_.Schedule(at, [&, region, is_write] {
      Client client = radical_->client(region);
      const SimTime invoke = sim_.Now();
      if (is_write) {
        const Value value("w" + std::to_string(unique++));
        client.Submit(Request{"reg_write", {Value("k"), value}}, [&, value, invoke](Outcome o) {
          ++completions;
          if (o.ok()) {
            history.Record(HistoryOp{true, "k", value, invoke, sim_.Now()});
          } else {
            EXPECT_EQ(o.status, RequestStatus::kRejected);
            ++rejected;
          }
        });
      } else {
        client.Submit(Request{"reg_read", {Value("k")}}, [&, invoke](Outcome o) {
          ++completions;
          if (o.ok()) {
            history.Record(HistoryOp{false, "k", std::move(o.result), invoke, sim_.Now()});
          } else {
            EXPECT_EQ(o.status, RequestStatus::kRejected);
            ++rejected;
          }
        });
      }
    });
  }
  // A same-instant read burst overflows the 16-deep queue and forces the
  // rejection path to fire inside the sweep.
  for (int i = 0; i < burst_ops; ++i) {
    sim_.Schedule(Seconds(3), [&] {
      Client client = radical_->client(Region::kCA);
      const SimTime invoke = sim_.Now();
      client.Submit(Request{"reg_read", {Value("k")}}, [&, invoke](Outcome o) {
        ++completions;
        if (o.ok()) {
          history.Record(HistoryOp{false, "k", std::move(o.result), invoke, sim_.Now()});
        } else {
          EXPECT_EQ(o.status, RequestStatus::kRejected);
          ++rejected;
        }
      });
    });
  }
  sim_.Run();

  // One final callback per Submit (a second completion of a request aborts
  // on done -> done).
  EXPECT_EQ(completions, background_ops + burst_ops);
  EXPECT_GT(radical_->server().counters().Get("rejected_overload"), 0u);
  const LinearizabilityResult result = CheckHistory(history, {{"k", Value("v0")}});
  EXPECT_TRUE(result.linearizable) << result.violation;
  EXPECT_TRUE(radical_->server().idle());
}

// Satellite regression: serving capacities above one request per simulator
// tick used to truncate the service time to zero and silently model an
// *unlimited* server; they now clamp to the tick rate, so back-to-back
// arrivals still queue and a bounded queue still rejects.
TEST(OverloadServerTest, CapacityAboveTickRateClampsInsteadOfGoingUnlimited) {
  Simulator sim;
  VersionedStore store;
  Analyzer analyzer(&HostRegistry::Standard());
  FunctionRegistry registry(&analyzer);
  Interpreter interp(&HostRegistry::Standard());
  LockService locks(&sim);
  LviServerOptions options;
  options.serving_capacity_rps = 5'000'000;  // > 1 request per microsecond tick.
  options.admission_queue_limit = 1;
  LviServer server(&sim, &store, &registry, &interp, &locks, options);
  registry.Register(Fn("reg_get", {"k"}, {
      Read("out", In("k")),
      Return(V("out")),
  }));
  store.Seed("k", Value("v"));

  int ok = 0;
  int overloaded = 0;
  for (int i = 0; i < 3; ++i) {
    LviRequest request;
    request.exec_id = sim.NextId();
    request.origin = Region::kCA;
    request.function = "reg_get";
    request.inputs = {Value("k")};
    request.items = {{"k", 1, LockMode::kRead}};
    server.HandleLviRequest(std::move(request), [&](LviResponse response) {
      if (response.status == ResponseStatus::kOverloaded) {
        ++overloaded;
      } else {
        EXPECT_EQ(response.status, ResponseStatus::kOk);
        ++ok;
      }
    });
  }
  sim.Run();

  // With the clamp, the same-instant arrivals behind the first occupy the
  // one queue slot's worth of backlog and are rejected; the old truncation
  // admitted all three.
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(overloaded, 2);
  EXPECT_EQ(server.counters().Get("rejected_overload"), 2u);
  EXPECT_EQ(server.counters().Get("lvi_requests"), 1u);
}

// At defaults every overload-control knob is off: the machinery stays
// dormant (all its counters zero) and the schedule is byte-identical run to
// run — the subsystem must not perturb existing deployments.
TEST(OverloadDefaultsTest, DefaultsStayDormantAndDeterministic) {
  const auto run = [](uint64_t seed) {
    Simulator sim(seed);
    Network net(&sim, LatencyMatrix::PaperDefault());
    RadicalConfig config;
    RadicalDeployment radical(&sim, &net, config, DeploymentRegions());
    radical.RegisterFunction(Fn("reg_read", {"k"}, {
        Read("v", In("k")),
        Return(V("v")),
    }));
    radical.RegisterFunction(Fn("reg_write", {"k", "v"}, {
        Write(In("k"), In("v")),
        Return(In("v")),
    }));
    radical.Seed("k", Value("v0"));
    radical.WarmCaches();

    std::vector<SimTime> reply_times;
    Rng rng(7);
    for (int i = 0; i < 20; ++i) {
      const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
      const bool is_write = rng.NextBool(0.5);
      const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(2)));
      sim.Schedule(at, [&, region, is_write, i] {
        Client client = radical.client(region);
        if (is_write) {
          client.Submit(Request{"reg_write", {Value("k"), Value("w" + std::to_string(i))}},
                        [&](Outcome) { reply_times.push_back(sim.Now()); });
        } else {
          client.Submit(Request{"reg_read", {Value("k")}},
                        [&](Outcome) { reply_times.push_back(sim.Now()); });
        }
      });
    }
    sim.Run();

    EXPECT_EQ(reply_times.size(), 20u);
    for (const Region region : DeploymentRegions()) {
      const obs::MetricsScope counters = radical.runtime(region).counters();
      EXPECT_EQ(counters.Get("rejected_by_server"), 0u);
      EXPECT_EQ(counters.Get("shed_by_server"), 0u);
      EXPECT_EQ(counters.Get("rejected_replies"), 0u);
      EXPECT_EQ(counters.Get("deadline_exceeded_replies"), 0u);
    }
    const obs::MetricsScope server = radical.server().counters();
    EXPECT_EQ(server.Get("rejected_overload"), 0u);
    EXPECT_EQ(server.Get("shed_total"), 0u);
    EXPECT_EQ(server.Get("shed_admission"), 0u);
    EXPECT_EQ(server.gauge("queue_depth_peak")->value(), 0);
    return reply_times;
  };

  const std::vector<SimTime> first = run(42);
  const std::vector<SimTime> second = run(42);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace radical
