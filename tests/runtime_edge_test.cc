// Protocol edge cases at the runtime level: lock-release policy visibility,
// same-region concurrency, counter invariants, and interactions between
// configuration switches.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/func/builder.h"
#include "src/func/interpreter.h"
#include "src/radical/deployment.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

NetworkOptions NoJitter() {
  NetworkOptions options;
  options.jitter_stddev_frac = 0.0;
  return options;
}

// The key Read(IntToStr(Host("expensive_digest", {input}))) reads.
Key DigestKey(const std::string& input) {
  const HostFunction* digest = HostRegistry::Standard().Find("expensive_digest");
  return std::to_string(digest->fn({Value(input)}).AsInt());
}

class RuntimeEdgeTest : public ProfiledTest {
 protected:
  explicit RuntimeEdgeTest(const DeploymentProfile& profile)
      : ProfiledTest(profile),
        sim_(112233),
        net_(&sim_, LatencyMatrix::PaperDefault(), NoJitter()) {
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, RadicalConfig{},
                                                    DeploymentRegions());
    radical_->RegisterFunction(Fn("slow_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(250)),
        Return(V("v")),
    }));
    radical_->RegisterFunction(Fn("fast_write", {"k", "v"}, {
        Write(In("k"), In("v")),
        Compute(Millis(15)),
        Return(In("v")),
    }));
    radical_->RegisterFunction(Fn("read_modify_write", {"k"}, {
        Read("n", In("k")),
        Write(In("k"), Add(V("n"), C(static_cast<int64_t>(1)))),
        Compute(Millis(25)),
        Return(Add(V("n"), C(static_cast<int64_t>(1)))),
    }));
    radical_->Seed("k", Value("v0"));
    radical_->Seed("ctr", Value(static_cast<int64_t>(0)));
    radical_->WarmCaches();
  }

  // post(user, text) appends to each follower's timeline. The follower list
  // feeds the timeline keys, so a PoP predicts them from its cache. Every
  // cache holds followers:a = [b], but the primary's is [b, c]: c followed a
  // after the caches were warmed, and no push told them.
  void RegisterTimeline(SimDuration append_compute) {
    radical_->RegisterFunction(Fn("post", {"user", "text"}, {
        Read("followers", Cat({C("followers:"), In("user")})),
        ForEach("f", V("followers"), {
            Read("tl", Cat({C("timeline:"), V("f")})),
            Write(Cat({C("timeline:"), V("f")}), Append(V("tl"), In("text"))),
        }),
        Compute(Millis(80)),
        Return(In("text")),
    }));
    radical_->RegisterFunction(Fn("append", {"k", "text"}, {
        Read("tl", In("k")),
        Write(In("k"), Append(V("tl"), In("text"))),
        Compute(append_compute),
        Return(In("text")),
    }));
    radical_->Seed("followers:a", Value(ValueList{Value("b")}));
    radical_->Seed("timeline:b", Value(ValueList{}));
    radical_->Seed("timeline:c", Value(ValueList{}));
    radical_->WarmCaches();
    radical_->primary().Put("followers:a", Value(ValueList{Value("b"), Value("c")}), nullptr);
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(RuntimeEdgeTest, ReadLocksReleaseEarlySoWritersAreNotBlockedByLongReads) {
  // A 250 ms read-only execution releases its read lock at validation; a
  // writer arriving mid-read must NOT wait the full execution, only until
  // the read's validation completed (§3.6 read-only release policy).
  radical_->Invoke(Region::kCA, "slow_read", {Value("k")}, [](Value) {});
  SimDuration writer_latency = 0;
  sim_.RunFor(Millis(30));  // Read's LVI request is now in flight.
  const SimTime start = sim_.Now();
  radical_->Invoke(Region::kDE, "fast_write", {Value("k"), Value("v1")},
                   [&](Value) { writer_latency = sim_.Now() - start; });
  sim_.Run();
  // The writer pays roughly its own protocol latency (~115 ms from DE), not
  // the reader's 250 ms execution on top.
  EXPECT_LT(ToMillis(writer_latency), 140.0);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("v1"));
}

PROFILE_TEST(RuntimeEdgeTest, BackupWritingBeyondItsLocksLosesNoConcurrentUpdate) {
  RegisterTimeline(Millis(5));
  // CA locks {followers:a, timeline:b}; validation fails on followers:a, and
  // the backup's fresh run also reads and writes timeline:c, unlocked.
  Value posted;
  radical_->Invoke(Region::kCA, "post", {Value("a"), Value("hello")},
                   [&](Value v) { posted = std::move(v); });
  while (radical_->server().validations_failed() == 0 && sim_.Step()) {
  }
  // Past the backup's read point, inside its compute: another writer next
  // to the primary appends to timeline:c.
  sim_.RunFor(radical_->config().server.backup_invoke_overhead + Millis(1));
  Value appended;
  radical_->Invoke(Region::kVA, "append", {Value("timeline:c"), Value("bye")},
                   [&](Value v) { appended = std::move(v); });
  sim_.Run();
  EXPECT_EQ(posted, Value("hello"));
  EXPECT_EQ(appended, Value("bye"));
  EXPECT_EQ(radical_->server().counters().Get("primary_reruns"), 1u);
  // Both updates land, the post first: its rerun took timeline:c's write
  // lock at its read point, before the append asked for it.
  EXPECT_EQ(radical_->primary().Peek("timeline:b")->value, Value(ValueList{Value("hello")}));
  EXPECT_EQ(radical_->primary().Peek("timeline:c")->value,
            Value(ValueList{Value("hello"), Value("bye")}));
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(RuntimeEdgeTest, BackupWritingBeyondItsLocksWaitsForAnUnappliedIntent) {
  RegisterTimeline(Millis(400));
  // VA's append validates and holds timeline:c's write lock while its
  // 400 ms speculation runs; its write reaches the primary only with the
  // followup.
  Value appended;
  radical_->Invoke(Region::kVA, "append", {Value("timeline:c"), Value("bye")},
                   [&](Value v) { appended = std::move(v); });
  while (radical_->server().validations_succeeded() == 0 && sim_.Step()) {
  }
  // CA's post backup reads and writes timeline:c beyond its locks long
  // before that followup arrives.
  Value posted;
  radical_->Invoke(Region::kCA, "post", {Value("a"), Value("hello")},
                   [&](Value v) { posted = std::move(v); });
  sim_.Run();
  EXPECT_EQ(posted, Value("hello"));
  EXPECT_EQ(appended, Value("bye"));
  EXPECT_EQ(radical_->server().validations_failed(), 1u);
  EXPECT_EQ(radical_->server().counters().Get("primary_reruns"), 1u);
  // The post's rerun waited for the append's intent, so "hello" survives.
  EXPECT_EQ(radical_->primary().Peek("timeline:c")->value,
            Value(ValueList{Value("bye"), Value("hello")}));
  EXPECT_EQ(radical_->primary().Peek("timeline:b")->value, Value(ValueList{Value("hello")}));
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(RuntimeEdgeTest, UnanalyzableReadSeesAnAcknowledgedWrite) {
  // The read key goes through a digest the analyzer cannot see through, so
  // the function runs at the primary with no predicted locks.
  radical_->RegisterFunction(Fn("opaque_get", {"u"}, {
      Read("v", IntToStr(Host("expensive_digest", {In("u")}))),
      Return(V("v")),
  }));
  ASSERT_FALSE(radical_->registry().Find("opaque_get")->analyzable);
  const Key key = DigestKey("u");
  radical_->Seed(key, Value("old"));
  radical_->WarmCaches();
  // JP's client is answered before the write's followup reaches the
  // primary; a read that starts after that answer must see the write.
  std::optional<Value> read;
  radical_->Invoke(Region::kJP, "fast_write", {Value(key), Value("new")}, [&](Value) {
    radical_->Invoke(Region::kVA, "opaque_get", {Value("u")},
                     [&](Value v) { read = std::move(v); });
  });
  sim_.Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, Value("new"));
  EXPECT_EQ(radical_->primary().Peek(key)->value, Value("new"));
  EXPECT_EQ(radical_->server().counters().Get("primary_reruns"), 1u);
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(RuntimeEdgeTest, SameRegionBackToBackWritesChainThroughCacheVersions) {
  // Two sequential writes from the same region: the second validates against
  // the version the first installed locally — no failure, both land.
  Value r1;
  radical_->Invoke(Region::kIE, "fast_write", {Value("k"), Value("a")},
                   [&](Value v) { r1 = std::move(v); });
  sim_.Run();
  Value r2;
  radical_->Invoke(Region::kIE, "fast_write", {Value("k"), Value("b")},
                   [&](Value v) { r2 = std::move(v); });
  sim_.Run();
  EXPECT_EQ(radical_->server().validations_succeeded(), 2u);
  EXPECT_EQ(radical_->server().validations_failed(), 0u);
  EXPECT_EQ(radical_->primary().VersionOf("k"), 3);
  EXPECT_EQ(radical_->primary().Peek("k")->value, Value("b"));
}

PROFILE_TEST(RuntimeEdgeTest, SameRegionOverlappingWritesSecondTakesBackupPath) {
  // Issued back-to-back without waiting: the second request's cached version
  // predates the first's install, so it queues on the write lock and then
  // fails validation — yet both writes land exactly once each.
  int done = 0;
  radical_->Invoke(Region::kIE, "read_modify_write", {Value("ctr")}, [&](Value) { ++done; });
  radical_->Invoke(Region::kIE, "read_modify_write", {Value("ctr")}, [&](Value) { ++done; });
  sim_.Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(radical_->primary().Peek("ctr")->value, Value(static_cast<int64_t>(2)));
  EXPECT_EQ(radical_->primary().VersionOf("ctr"), 3);  // Seed + two increments.
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(RuntimeEdgeTest, IncrementCounterLinearizesAcrossAllRegions) {
  // The classic lost-update test: N concurrent increments from everywhere
  // must sum exactly.
  const int per_region = 3;
  int done = 0;
  for (int i = 0; i < per_region; ++i) {
    for (const Region region : DeploymentRegions()) {
      sim_.Schedule(Millis(i * 40), [this, region, &done] {
        radical_->Invoke(region, "read_modify_write", {Value("ctr")},
                         [&done](Value) { ++done; });
      });
    }
  }
  sim_.Run();
  const int total = per_region * static_cast<int>(DeploymentRegions().size());
  EXPECT_EQ(done, total);
  EXPECT_EQ(radical_->primary().Peek("ctr")->value, Value(static_cast<int64_t>(total)));
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(RuntimeEdgeTest, CounterInvariantsHold) {
  Rng rng(5);
  int remaining = 60;
  for (int i = 0; i < 60; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(3)));
    const bool write = rng.NextBool(0.3);
    sim_.Schedule(at, [this, region, write, &remaining, &rng] {
      if (write) {
        radical_->Invoke(region, "fast_write",
                         {Value("k"), Value("x" + std::to_string(rng.Next() % 1000))},
                         [&remaining](Value) { --remaining; });
      } else {
        radical_->Invoke(region, "slow_read", {Value("k")}, [&remaining](Value) { --remaining; });
      }
    });
  }
  sim_.Run();
  EXPECT_EQ(remaining, 0);
  // Every LVI request resolved to exactly one of the two validation outcomes.
  EXPECT_EQ(radical_->server().counters().Get("lvi_requests"),
            radical_->server().validations_succeeded() +
                radical_->server().validations_failed());
  // Every speculation resolved to exactly one of committed or invalidated.
  uint64_t speculations = 0;
  uint64_t resolved = 0;
  for (const Region region : DeploymentRegions()) {
    const obs::MetricsScope counters = radical_->runtime(region).counters();
    speculations += counters.Get("speculations");
    resolved += counters.Get("validated_speculative") +
                counters.Get("invalidated_speculative");
    // Requests in == replies out, per region.
    EXPECT_EQ(counters.Get("requests"), counters.Get("replies")) << RegionName(region);
  }
  EXPECT_EQ(speculations, resolved);
  // Every applied or replayed intent retired: server drained.
  EXPECT_TRUE(radical_->server().idle());
}

PROFILE_TEST(RuntimeEdgeTest, NoSpeculationStillCorrectOnMissAndFailure) {
  RadicalConfig config;
  config.speculation_enabled = false;
  ProfiledDeployment no_spec(profile(), &sim_, &net_, config, {Region::kCA});
  no_spec.RegisterFunction(Fn("slow_read", {"k"}, {
      Read("v", In("k")),
      Compute(Millis(50)),
      Return(V("v")),
  }));
  no_spec.Seed("k", Value("v"));
  // No warm caches: first request misses, repairs, second validates and runs
  // locally after the response.
  Value r1;
  no_spec.Invoke(Region::kCA, "slow_read", {Value("k")}, [&](Value v) { r1 = std::move(v); });
  sim_.Run();
  EXPECT_EQ(r1, Value("v"));
  Value r2;
  no_spec.Invoke(Region::kCA, "slow_read", {Value("k")}, [&](Value v) { r2 = std::move(v); });
  sim_.Run();
  EXPECT_EQ(r2, Value("v"));
  EXPECT_EQ(no_spec.runtime(Region::kCA).counters().Get("validated_local_exec"), 1u);
}

PROFILE_TEST(RuntimeEdgeTest, WarmCachesMatchPrimaryExactly) {
  radical_->primary().ForEachItem([&](const Key& key, const Item& item) {
    for (const Region region : DeploymentRegions()) {
      const auto cached = radical_->runtime(region).cache().Peek(key);
      ASSERT_TRUE(cached.has_value()) << key;
      EXPECT_EQ(cached->value, item.value) << key;
      EXPECT_EQ(cached->version, item.version) << key;
    }
  });
}

PROFILE_TEST(RuntimeEdgeTest, EvictedSingleKeyOnlyAffectsThatKey) {
  radical_->runtime(Region::kJP).cache().Evict("k");
  // Reading "ctr" still speculates; reading "k" takes the miss path.
  radical_->Invoke(Region::kJP, "read_modify_write", {Value("ctr")}, [](Value) {});
  sim_.Run();
  EXPECT_EQ(radical_->runtime(Region::kJP).counters().Get("validated_speculative"), 1u);
  radical_->Invoke(Region::kJP, "slow_read", {Value("k")}, [](Value) {});
  sim_.Run();
  EXPECT_EQ(radical_->runtime(Region::kJP).counters().Get("spec_skipped_miss"), 1u);
}

// LVI attempts that run out while the speculation is still running: the
// request falls back to direct, and its first LVI response lands after the
// fallback. The direct path owns the request from then on — the late
// response is ignored, the speculation is discarded, and the client gets one
// final, the direct result.
TEST(RuntimeLifecycleTest, FallbackWhileSpeculatingIgnoresTheLateLviResponse) {
  Simulator sim(112233);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalDeployment radical(&sim, &net, RadicalConfig{}, {Region::kCA});
  radical.RegisterFunction(Fn("tag", {"k"}, {
      Read("v", In("k")),
      Write(In("k"), Cat({V("v"), C("+")})),
      Compute(Millis(300)),
      Return(V("v")),
  }));
  radical.Seed("k", Value("real"));
  radical.WarmCaches();
  // A tracer at the primary's version: validation passes, but anything the
  // speculation computes from the cache is recognisable.
  CacheStore& cache = radical.runtime(Region::kCA).cache();
  const Version version = cache.VersionOf("k");
  cache.Install("k", Value("tracer"), version);

  // LVI attempts time out after 2 ms and 40 ms, so the request falls back
  // 42 ms after the LVI send: inside the ~70 ms CA-VA round trip and the
  // 300 ms speculation. The second attempt reaches the server while the
  // first is in its pipeline, so exactly one LVI response comes back. Both
  // direct retransmits (after 2 ms and 40 ms) reach the server while it
  // re-executes, and its one reply lands before the 800 ms timeout.
  RequestOptions options;
  options.consistency = ConsistencyMode::kPreviewThenFinal;
  options.retry = RetryPolicy{};
  options.retry->request_timeout = Millis(2);
  options.retry->max_lvi_attempts = 2;
  options.retry->backoff = 20.0;
  std::vector<Outcome> finals;
  std::optional<Item> cached_after_spec;
  radical.client(Region::kCA).Submit(Request{"tag", {Value("k")}}, options, [&](Outcome o) {
    if (!o.preview()) {
      finals.push_back(std::move(o));
      return;
    }
    // The speculation just finished, after the fallback. Look at the cache
    // once a commit would have installed its write.
    EXPECT_EQ(o.result, Value("tracer"));
    sim.Schedule(cache.options().write_latency + Millis(1),
                 [&] { cached_after_spec = cache.Peek("k"); });
  });
  sim.Run();

  ASSERT_EQ(finals.size(), 1u);
  // The direct result, which the preview did not predict.
  EXPECT_EQ(finals[0].status, RequestStatus::kAborted);
  EXPECT_EQ(finals[0].result, Value("real"));
  const obs::MetricsScope counters = radical.runtime(Region::kCA).counters();
  EXPECT_EQ(counters.Get("speculations"), 1u);
  EXPECT_EQ(counters.Get("fallback_direct"), 1u);
  EXPECT_EQ(counters.Get("late_response_ignored"), 1u);
  EXPECT_EQ(counters.Get("validated_speculative"), 0u);
  EXPECT_EQ(counters.Get("replies"), 1u);
  // The discarded speculation installed nothing: the cache still held the
  // tracer at its old version, not "tracer+" at the next one.
  ASSERT_TRUE(cached_after_spec.has_value());
  EXPECT_EQ(cached_after_spec->value, Value("tracer"));
  EXPECT_EQ(cached_after_spec->version, version);
  EXPECT_EQ(radical.primary().Peek("k")->value, Value("real+"));
  EXPECT_TRUE(radical.server().idle());
}

}  // namespace
}  // namespace radical
