// A read-only function that fails validation is answered with the primary's
// snapshot of its items, read under the read locks at their grant, and
// reruns at its PoP on that snapshot: no backup execution at the primary
// (docs/protocol.md, "Validation fails (6b)"). These tests pin what the
// rerun returns (f on the snapshot, untorn by pushes that land meanwhile),
// what it repairs, when it has to go direct, and how retries and sessions
// see it.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/func/builder.h"
#include "src/obs/span.h"
#include "src/radical/deployment.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

NetworkOptions NoJitter() {
  NetworkOptions options;
  options.jitter_stddev_frac = 0.0;
  return options;
}

Value Pair(const Value& a, const Value& b) { return Value(ValueList{a, b}); }

class SnapshotRerunTest : public ProfiledTest {
 protected:
  explicit SnapshotRerunTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), sim_(11), net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, RadicalConfig{},
                                                    DeploymentRegions());
    radical_->AttachSpans(&spans_);
    radical_->RegisterFunction(Fn("reg_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(20)),
        Return(V("v")),
    }));
    radical_->RegisterFunction(Fn("pair_read", {"a", "b"}, {
        Read("x", In("a")),
        Read("y", In("b")),
        Compute(Millis(20)),
        Return(Append(Append(C(Value(ValueList{})), V("x")), V("y"))),
    }));
    radical_->RegisterFunction(Fn("pair_write", {"a", "b", "v"}, {
        Write(In("a"), In("v")),
        Write(In("b"), In("v")),
        Return(In("v")),
    }));
    // hotel_search's shape: the geo index names the keys read next.
    radical_->RegisterFunction(Fn("geo_search", {"loc"}, {
        Read("hotels", Cat({C("geo:"), In("loc")})),
        Let("rates", C(Value(ValueList{}))),
        ForEach("h", V("hotels"), {
            Read("r", Cat({C("rate:"), V("h")})),
            Let("rates", Append(V("rates"), V("r"))),
        }),
        Compute(Millis(50)),
        Return(V("rates")),
    }));
  }

  Value InvokeAndRun(Region origin, const std::string& function, std::vector<Value> inputs) {
    std::optional<Value> result;
    radical_->Invoke(origin, function, std::move(inputs), [&](Value v) { result = std::move(v); });
    sim_.Run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(Value());
  }

  CacheStore& cache(Region region) { return radical_->runtime(region).cache(); }
  uint64_t RuntimeCounter(Region region, const char* name) {
    return radical_->runtime(region).counters().Get(name);
  }
  size_t SpansNamed(const std::string& name) {
    size_t n = 0;
    for (const obs::Span& span : spans_.spans()) {
      n += span.name == name ? 1 : 0;
    }
    return n;
  }
  // Drops the first LVI response bound for `region`'s runtime.
  void DropFirstLviResponseTo(Region region) {
    net::DropRule rule;
    rule.kind = net::MessageKind::kLviResponse;
    rule.to = radical_->runtime(region).endpoint().id();
    rule.max_drops = 1;
    net_.fabric().AddDropRule(rule);
  }

  Simulator sim_;
  Network net_;
  obs::SpanCollector spans_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(SnapshotRerunTest, StaleReadOnlyRequestRerunsOnTheSnapshotWithNoBackup) {
  radical_->Seed("k", Value("v0"));
  radical_->WarmCaches();
  // The primary moves on without telling the caches: CA's copy is stale.
  radical_->primary().Put("k", Value("v1"), nullptr);
  const uint64_t primary_reads = radical_->primary().reads();
  EXPECT_EQ(InvokeAndRun(Region::kCA, "reg_read", {Value("k")}), Value("v1"));
  EXPECT_EQ(radical_->server().validations_failed(), 1u);
  EXPECT_EQ(radical_->server().backup_executions(), 0u);
  EXPECT_EQ(SpansNamed("server.backup_exec"), 0u);
  EXPECT_EQ(radical_->primary().reads(), primary_reads);  // f never ran there.
  EXPECT_EQ(RuntimeCounter(Region::kCA, "snapshot_reruns"), 1u);
  EXPECT_EQ(RuntimeCounter(Region::kCA, "rerun_outside_snapshot"), 0u);
  // The compute moved to the PoP: it runs from the response to the reply,
  // with no read latency, the values being in the reply.
  ASSERT_EQ(SpansNamed("rerun"), 1u);
  for (const obs::Span& span : spans_.spans()) {
    if (span.name == "rerun") {
      EXPECT_GE(span.duration, Millis(20));
      EXPECT_LT(span.duration, Millis(21));
    }
  }
  // The snapshot repaired the cache: CA's next read validates.
  EXPECT_EQ(cache(Region::kCA).Peek("k")->value, Value("v1"));
  EXPECT_EQ(cache(Region::kCA).VersionOf("k"), radical_->primary().VersionOf("k"));
  EXPECT_EQ(InvokeAndRun(Region::kCA, "reg_read", {Value("k")}), Value("v1"));
  EXPECT_EQ(radical_->server().validations_failed(), 1u);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(SnapshotRerunTest, PushLandingBeforeTheRerunDoesNotTearItsPair) {
  radical_->Seed("a", Value("x0"));
  radical_->Seed("b", Value("x0"));
  radical_->WarmCaches();
  // CA lacks b, so its pair read fails validation, and its first reply is
  // lost: the retry comes back after a writer set both keys to x1 and the
  // push for a (the one key CA holds) refreshed CA's cache.
  cache(Region::kCA).Evict("b");
  DropFirstLviResponseTo(Region::kCA);
  std::optional<Value> read;
  radical_->Invoke(Region::kCA, "pair_read", {Value("a"), Value("b")},
                   [&](Value v) { read = std::move(v); });
  while (radical_->server().validations_failed() == 0 && sim_.Step()) {
  }
  ASSERT_EQ(radical_->server().validations_failed(), 1u);
  std::optional<Value> written;
  radical_->Invoke(Region::kVA, "pair_write", {Value("a"), Value("b"), Value("x1")},
                   [&](Value v) { written = std::move(v); });
  sim_.Run();
  ASSERT_TRUE(written.has_value());
  ASSERT_TRUE(read.has_value());
  EXPECT_GE(RuntimeCounter(Region::kCA, "cache_push_applied"), 1u);
  // The rerun read the snapshot taken at the reader's grant, before the
  // writer: both keys at x0. The cache by then held a at x1 and b at x0.
  EXPECT_EQ(*read, Pair(Value("x0"), Value("x0")));
  EXPECT_EQ(radical_->server().counters().Get("duplicate_replayed"), 1u);
  EXPECT_EQ(RuntimeCounter(Region::kCA, "snapshot_reruns"), 1u);
  // The repair inserted b and left the pushed, newer a alone.
  EXPECT_EQ(cache(Region::kCA).Peek("a")->value, Value("x1"));
  EXPECT_EQ(cache(Region::kCA).VersionOf("a"), radical_->primary().VersionOf("a"));
  EXPECT_EQ(cache(Region::kCA).Peek("b")->value, Value("x0"));
  EXPECT_EQ(cache(Region::kCA).VersionOf("b"), 1);
  EXPECT_EQ(radical_->primary().Peek("a")->value, Value("x1"));
  EXPECT_EQ(radical_->primary().Peek("b")->value, Value("x1"));
}

PROFILE_TEST(SnapshotRerunTest, ChangedIndexReadsOutsideTheSnapshotAndGoesDirect) {
  radical_->Seed("geo:x", Value(ValueList{Value("h1")}));
  radical_->Seed("rate:h1", Value(int64_t{100}));
  radical_->Seed("rate:h2", Value(int64_t{200}));
  radical_->WarmCaches();
  // The index moves to h2; CA's f^rw still predicts geo:x and rate:h1.
  radical_->primary().Put("geo:x", Value(ValueList{Value("h2")}), nullptr);
  EXPECT_EQ(InvokeAndRun(Region::kCA, "geo_search", {Value("x")}),
            Value(ValueList{Value(int64_t{200})}));
  EXPECT_EQ(RuntimeCounter(Region::kCA, "snapshot_reruns"), 1u);
  EXPECT_EQ(RuntimeCounter(Region::kCA, "rerun_outside_snapshot"), 1u);
  EXPECT_EQ(radical_->server().counters().Get("direct_requests"), 1u);
  EXPECT_EQ(radical_->server().backup_executions(), 0u);
  EXPECT_EQ(SpansNamed("rerun"), 0u);
  // The snapshot still repaired the index.
  EXPECT_EQ(cache(Region::kCA).Peek("geo:x")->value, Value(ValueList{Value("h2")}));
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(SnapshotRerunTest, LostReplyIsReplayedFromTheCachedSnapshot) {
  radical_->Seed("k", Value("v0"));
  radical_->WarmCaches();
  radical_->primary().Put("k", Value("v1"), nullptr);
  DropFirstLviResponseTo(Region::kCA);
  std::optional<Value> result;
  radical_->Invoke(Region::kCA, "reg_read", {Value("k")}, [&](Value v) { result = std::move(v); });
  while (radical_->server().validations_failed() == 0 && sim_.Step()) {
  }
  // The primary moves again before the retry: the replay still answers
  // with the snapshot of the first attempt's read point.
  radical_->primary().Put("k", Value("v2"), nullptr);
  sim_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, Value("v1"));
  EXPECT_EQ(radical_->server().counters().Get("duplicate_replayed"), 1u);
  EXPECT_EQ(radical_->server().validations_failed(), 1u);
  EXPECT_EQ(radical_->server().backup_executions(), 0u);
  EXPECT_EQ(RuntimeCounter(Region::kCA, "snapshot_reruns"), 1u);
  EXPECT_GE(RuntimeCounter(Region::kCA, "retries"), 1u);
}

PROFILE_TEST(SnapshotRerunTest, SessionFloorsAdvanceFromTheSnapshot) {
  radical_->Seed("k", Value("v0"));  // Version 1.
  radical_->WarmCaches();
  radical_->primary().Put("k", Value("v1"), nullptr);  // Version 2; caches hold 1.
  Session session = radical_->OpenSession(Region::kCA);
  std::optional<Outcome> final_outcome;
  session.Submit(Request{"pair_read", {Value("k"), Value("never")}}, [&](Outcome outcome) {
    if (outcome.status != RequestStatus::kPreview) {
      final_outcome = std::move(outcome);
    }
  });
  sim_.Run();
  ASSERT_TRUE(final_outcome.has_value());
  EXPECT_EQ(final_outcome->result, Pair(Value("v1"), Value()));
  EXPECT_EQ(RuntimeCounter(Region::kCA, "snapshot_reruns"), 1u);
  // k at the snapshot's version; the key absent at the primary sets none.
  EXPECT_EQ(session.FloorOf("k"), 2);
  EXPECT_EQ(session.FloorOf("never"), 0);
}

}  // namespace
}  // namespace radical
