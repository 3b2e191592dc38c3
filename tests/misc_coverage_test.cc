// Coverage for small public surfaces not exercised elsewhere: event-queue
// introspection, absolute scheduling, logging levels, message wire
// sizes, stats rendering, external-service replay latency, and
// expression pretty-printing.

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/func/builder.h"
#include "src/func/external.h"
#include "src/lvi/codec.h"
#include "src/lvi/lvi_server.h"
#include "src/sim/simulator.h"

namespace radical {
namespace {

TEST(EventQueueIntrospectionTest, IsPendingTracksLifecycle) {
  EventQueue q;
  const EventId id = q.Push(10, [] {});
  EXPECT_TRUE(q.IsPending(id));
  SimTime when = 0;
  EventId popped = kInvalidEventId;
  q.Pop(&when, &popped);
  EXPECT_EQ(popped, id);
  EXPECT_FALSE(q.IsPending(id));
  const EventId id2 = q.Push(20, [] {});
  q.Cancel(id2);
  EXPECT_FALSE(q.IsPending(id2));
}

TEST(SimulatorScheduleAtTest, AbsoluteTimesClampToNow) {
  Simulator sim;
  sim.RunFor(Millis(50));
  SimTime fired_at = 0;
  sim.ScheduleAt(Millis(30), [&] { fired_at = sim.Now(); });  // In the past.
  sim.Run();
  EXPECT_EQ(fired_at, Millis(50));
  sim.ScheduleAt(Millis(80), [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, Millis(80));
}

TEST(LoggingTest, LevelGatingAndRoundTrip) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages are suppressed; both calls must be safe.
  LogLine(LogLevel::kDebug, "suppressed");
  LogLine(LogLevel::kError, "emitted (expected in test output)");
  RLOG(kDebug) << "also suppressed";
  SetLogLevel(saved);
}

TEST(MessageSizeTest, ApproxSizesScaleWithContent) {
  LviRequest small;
  small.function = "f";
  LviRequest big = small;
  for (int i = 0; i < 20; ++i) {
    big.items.push_back(LviItem{"some:rather:long:key:" + std::to_string(i), 1,
                                LockMode::kRead});
  }
  WireScratch wire;
  const size_t small_size = wire.SizeOf(small);
  EXPECT_GT(wire.SizeOf(big), small_size + 400);
  WriteFollowup followup;
  followup.writes.push_back({"k", Value(std::string(1000, 'x'))});
  EXPECT_GT(wire.SizeOf(followup), 1000u);
  LviResponse response;
  response.fresh_items.push_back({"k", Value(std::string(500, 'y')), 1});
  EXPECT_GT(wire.SizeOf(response), 500u);
}

TEST(StatsRenderingTest, SummaryAndHistogramToString) {
  LatencySampler samples;
  samples.Add(Millis(10));
  samples.Add(Millis(20));
  const std::string summary = samples.Summarize().ToString();
  EXPECT_NE(summary.find("n=2"), std::string::npos);
  EXPECT_NE(summary.find("p99"), std::string::npos);
  Histogram histogram(10.0, 50.0);
  histogram.Add(Millis(15));
  const std::string rendered = histogram.ToString();
  EXPECT_NE(rendered.find("[10,20)"), std::string::npos);
}

TEST(RwSetRenderingTest, ToStringListsBothSets) {
  RwSet rw;
  rw.reads = {"a"};
  rw.writes = {"b"};
  const std::string s = rw.ToString();
  EXPECT_NE(s.find("reads{a}"), std::string::npos);
  EXPECT_NE(s.find("writes{b}"), std::string::npos);
}

TEST(ExternalServiceTest2, ReplayLatencyIsCheaperThanExecution) {
  ExternalServiceRegistry registry;
  ExternalService* service = registry.Register(
      "svc", [](const Value&) { return Value("ok"); }, Millis(50), Millis(2));
  SimDuration first = 0;
  service->Call("key", Value("req"), &first);
  EXPECT_EQ(first, Millis(50));
  SimDuration replay = 0;
  service->Call("key", Value("req"), &replay);
  EXPECT_EQ(replay, Millis(2));
  EXPECT_NE(service->ResponseFor("key"), nullptr);
  EXPECT_EQ(service->ResponseFor("missing"), nullptr);
}

TEST(ExprRenderingTest, GoldenStrings) {
  EXPECT_EQ(Cat({C("timeline:"), In("u")})->ToString(), "concat(\"timeline:\", $u)");
  EXPECT_EQ(Add(V("x"), C(static_cast<int64_t>(1)))->ToString(), "add(x, 1)");
  EXPECT_EQ(Host("geo_cell", {In("loc")})->ToString(), "geo_cell($loc)");
  EXPECT_EQ(Take(V("l"), C(static_cast<int64_t>(3)))->ToString(), "take(l, 3)");
}

TEST(StmtRenderingTest, ExternalCallPrints) {
  const FunctionDef fn = Fn("pay", {"amt"}, {
      External("r", "payments", In("amt")),
      Return(V("r")),
  });
  const std::string s = FunctionToString(fn);
  EXPECT_NE(s.find("external r = payments($amt)"), std::string::npos);
}

TEST(CountersTest2, IncrementByAndAll) {
  Counters counters;
  counters.Increment("x", 5);
  counters.Increment("x");
  EXPECT_EQ(counters.Get("x"), 6u);
  EXPECT_EQ(counters.all().size(), 1u);
  counters.Clear();
  EXPECT_EQ(counters.all().size(), 0u);
}

}  // namespace
}  // namespace radical
