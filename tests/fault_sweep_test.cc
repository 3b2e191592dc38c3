// End-to-end fault sweep: 10% message loss on the LVI request, response, and
// followup legs, plus one mid-run server crash/recover — the scenario the
// request-lifecycle retry machinery (RetryPolicy) exists for. Every Invoke
// must be answered exactly once, the history must stay linearizable, and the
// retry/fallback/crash-epoch paths must all actually fire. A second register
// is named by an opaque digest and read through an unanalyzable function,
// which runs at the primary and locks what its first run touched.

#include <gtest/gtest.h>

#include <string>

#include "src/check/linearizability.h"
#include "src/func/builder.h"
#include "src/func/interpreter.h"
#include "src/radical/deployment.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

// The key Read(IntToStr(Host("expensive_digest", {input}))) reads.
Key DigestKey(const std::string& input) {
  const HostFunction* digest = HostRegistry::Standard().Find("expensive_digest");
  return std::to_string(digest->fn({Value(input)}).AsInt());
}

class FaultSweepTest : public ProfiledTest {
 protected:
  explicit FaultSweepTest(const DeploymentProfile& profile)
      : ProfiledTest(profile), sim_(777), net_(&sim_, LatencyMatrix::PaperDefault()) {
    RadicalConfig config;
    config.server.intent_timeout = Millis(500);
    // Tight timeouts so the 6-second run exercises several retry rounds.
    config.retry.request_timeout = Millis(300);
    config.retry.max_lvi_attempts = 2;
    radical_ = std::make_unique<ProfiledDeployment>(profile, &sim_, &net_, config,
                                                    DeploymentRegions());
    radical_->RegisterFunction(Fn("reg_read", {"k"}, {
        Read("v", In("k")),
        Compute(Millis(5)),
        Return(V("v")),
    }));
    radical_->RegisterFunction(Fn("reg_write", {"k", "v"}, {
        Write(In("k"), In("v")),
        Compute(Millis(5)),
        Return(In("v")),
    }));
    radical_->RegisterFunction(Fn("opaque_read", {"name"}, {
        Read("v", IntToStr(Host("expensive_digest", {In("name")}))),
        Compute(Millis(5)),
        Return(V("v")),
    }));
    radical_->Seed("k", Value("v0"));
    radical_->Seed(opaque_key_, Value("v0"));
    radical_->WarmCaches();
  }

  void AddLoss(net::MessageKind kind, double probability) {
    net::DropRule rule;
    rule.kind = kind;
    rule.probability = probability;
    net_.fabric().AddDropRule(rule);
  }

  // The register opaque_read("r") reads.
  const Key opaque_key_ = DigestKey("r");
  Simulator sim_;
  Network net_;
  std::unique_ptr<ProfiledDeployment> radical_;
};

PROFILE_TEST(FaultSweepTest, EveryInvokeRepliesAndStaysLinearizable) {
  AddLoss(net::MessageKind::kLviRequest, 0.1);
  AddLoss(net::MessageKind::kLviResponse, 0.1);
  AddLoss(net::MessageKind::kWriteFollowup, 0.1);

  HistoryRecorder history;
  int unique = 0;
  // Ops on register `key` drawn from `rng`; reads of the opaque register go
  // through opaque_read.
  auto schedule_ops = [&](Rng& rng, const Key& key, int ops) {
    for (int i = 0; i < ops; ++i) {
      const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
      const bool is_write = rng.NextBool(0.5);
      const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(6)));
      sim_.Schedule(at, [&, region, is_write, key] {
        const SimTime invoke = sim_.Now();
        if (is_write) {
          const Value value("w" + std::to_string(unique++));
          radical_->Invoke(region, "reg_write", {Value(key), value},
                           [&, key, value, invoke](Value) {
                             history.Record(HistoryOp{true, key, value, invoke, sim_.Now()});
                           });
          return;
        }
        auto done = [&, key, invoke](Value result) {
          history.Record(HistoryOp{false, key, std::move(result), invoke, sim_.Now()});
        };
        if (key == opaque_key_) {
          radical_->Invoke(region, "opaque_read", {Value("r")}, std::move(done));
        } else {
          radical_->Invoke(region, "reg_read", {Value(key)}, std::move(done));
        }
      });
    }
  };
  Rng rng(424242);
  schedule_ops(rng, "k", 60);
  Rng opaque_rng(434343);
  schedule_ops(opaque_rng, opaque_key_, 30);
  const int total_ops = 90;

  // Crash while a freshly admitted request's pipeline is in flight (the 20th
  // fresh accept just landed; its admission continuation is still pending),
  // so the crash window provably cuts through live server state. Recover
  // 1.5 s later; requests arriving in between are dropped and retried.
  while (radical_->server().counters().Get("lvi_requests") < 20 && sim_.Step()) {
  }
  ASSERT_GE(radical_->server().counters().Get("lvi_requests"), 20u);
  radical_->server().Crash();
  sim_.Schedule(Millis(1500), [&] { radical_->server().Recover(); });
  sim_.Run();

  // 100% of Invokes answered, exactly once each: one final callback per
  // Submit (a second completion of a request aborts on done -> done).
  EXPECT_EQ(history.size(), static_cast<size_t>(total_ops));
  uint64_t requests = 0;
  uint64_t replies = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t fallback_direct = 0;
  for (const Region region : DeploymentRegions()) {
    const obs::MetricsScope counters = radical_->runtime(region).counters();
    EXPECT_EQ(counters.Get("requests"), counters.Get("replies"))
        << "region " << RegionName(region);
    requests += counters.Get("requests");
    replies += counters.Get("replies");
    retries += counters.Get("retries");
    timeouts += counters.Get("timeouts");
    fallback_direct += counters.Get("fallback_direct");
  }
  EXPECT_EQ(requests, static_cast<uint64_t>(total_ops));
  EXPECT_EQ(replies, static_cast<uint64_t>(total_ops));

  // The loss and the crash actually exercised the retry machinery.
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(fallback_direct, 0u);
  EXPECT_GT(radical_->server().counters().Get("stale_epoch_dropped"), 0u);
  EXPECT_GT(radical_->server().counters().Get("dropped_while_down"), 0u);

  // Opaque reads run at the primary and rerun under the lock their first
  // run found.
  EXPECT_GT(radical_->server().counters().Get("primary_reruns"), 0u);

  // Consistency survived all of it.
  const LinearizabilityResult result =
      CheckHistory(history, {{"k", Value("v0")}, {opaque_key_, Value("v0")}});
  EXPECT_TRUE(result.linearizable) << result.violation;
  EXPECT_TRUE(radical_->server().idle());
}

}  // namespace
}  // namespace radical
