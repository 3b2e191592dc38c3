// Sharding tests: the ShardRouter key-range map, deadlock-free cross-shard
// lock acquisition, a fault-sweep linearizability check of the sharded path,
// and the guarantee that the default (shards = 1) creates no shard-scoped
// instruments.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/registry.h"
#include "src/check/linearizability.h"
#include "src/common/rng.h"
#include "src/func/builder.h"
#include "src/lvi/lock_service.h"
#include "src/lvi/shard_router.h"
#include "src/radical/deployment.h"

namespace radical {
namespace {

std::vector<Key> TestKeys() {
  std::vector<Key> keys;
  for (int i = 0; i < 512; ++i) {
    keys.push_back("post/" + std::to_string(i));
    keys.push_back("user/" + std::to_string(i) + "/timeline");
  }
  keys.push_back("");
  keys.push_back("k");
  return keys;
}

TEST(ShardRouterTest, EveryKeyRoutesToExactlyOneShardInsideItsRange) {
  for (const int shards : {1, 2, 4, 8}) {
    const ShardRouter router(shards);
    for (const Key& key : TestKeys()) {
      const int shard = router.ShardOf(key);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, shards);
      // Routing is a pure function of the key's point.
      EXPECT_EQ(shard, router.ShardOfPoint(ShardRouter::Point(key)));
      // The point falls inside the shard's half-open range; the last shard's
      // limit is 0, meaning the range wraps to 2^64.
      const uint64_t point = ShardRouter::Point(key);
      EXPECT_GE(point, router.RangeStart(shard));
      if (router.RangeLimit(shard) != 0) {
        EXPECT_LT(point, router.RangeLimit(shard));
      }
    }
  }
}

TEST(ShardRouterTest, RangesTileThePointSpace) {
  for (const int shards : {1, 2, 4, 8, 16}) {
    const ShardRouter router(shards);
    EXPECT_EQ(router.RangeStart(0), 0u);
    for (int s = 0; s + 1 < shards; ++s) {
      EXPECT_EQ(router.RangeLimit(s), router.RangeStart(s + 1)) << "shards=" << shards;
    }
    EXPECT_EQ(router.RangeLimit(shards - 1), 0u) << "shards=" << shards;
  }
}

TEST(ShardRouterTest, RebalancingRefinesOwnership) {
  // Growing N shards to k*N splits each shard into exactly k children: the
  // child index divided by k is the parent index, for every key. This is the
  // invariant that makes hash-range rebalancing local (no key ever moves
  // between unrelated shards).
  for (const int n : {1, 2, 4}) {
    for (const int k : {2, 4}) {
      const ShardRouter coarse(n);
      const ShardRouter fine(n * k);
      for (const Key& key : TestKeys()) {
        EXPECT_EQ(fine.ShardOf(key) / k, coarse.ShardOf(key))
            << "key=" << key << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(ShardRouterTest, PointIsFnv1aWithPinnedVectors) {
  // Published FNV-1a 64-bit test vectors. Shard placement everywhere in the
  // system derives from this function; these pins catch accidental changes.
  EXPECT_EQ(ShardRouter::Point(""), 14695981039346656037ull);
  EXPECT_EQ(ShardRouter::Point("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(ShardRouter::Point("foobar"), 0x85944171f73967e8ull);
}

// --- Local lock groups at N shards -----------------------------------------

TEST(ShardedLockServiceTest, CrossShardAcquireGrantsAndConflictWaits) {
  Simulator sim;
  LockService locks(&sim, 0, RaftOptions{}, LocalMeshOptions{}, 4);

  // A sorted key set spanning several shards.
  std::vector<Key> keys = TestKeys();
  keys.resize(16);
  std::sort(keys.begin(), keys.end());
  std::vector<LockMode> modes(keys.size(), LockMode::kWrite);

  std::set<int> shards_touched;
  for (const Key& key : keys) {
    shards_touched.insert(locks.router().ShardOf(key));
  }
  ASSERT_GT(shards_touched.size(), 1u) << "key set must span shards for this test";

  bool first_granted = false;
  locks.AcquireAll(1, keys, modes, [&] { first_granted = true; });
  sim.Run();
  ASSERT_TRUE(first_granted);
  // One acquisition per per-shard group (the table counts grouped acquires).
  EXPECT_EQ(locks.total_acquisitions(), shards_touched.size());
  EXPECT_EQ(locks.total_waits(), 0u);

  // A conflicting acquirer queues until the holder releases.
  bool second_granted = false;
  locks.AcquireAll(2, {keys.front(), keys.back()},
                   {LockMode::kWrite, LockMode::kWrite}, [&] { second_granted = true; });
  sim.Run();
  EXPECT_FALSE(second_granted);
  EXPECT_GT(locks.total_waits(), 0u);

  locks.ReleaseAll(1);
  sim.Run();
  EXPECT_TRUE(second_granted);
  locks.ReleaseAll(2);
}

TEST(ShardedLockServiceTest, ItemlessAcquireGrantsAfterReturning) {
  // Like a LockTable, the service never runs `granted` inside AcquireAll —
  // an item-less request included — so callers never re-enter it.
  Simulator sim;
  LockService locks(&sim, 0, RaftOptions{}, LocalMeshOptions{}, 4);
  bool returned = false;
  bool granted_after_return = false;
  locks.AcquireAll(1, {}, {}, [&] { granted_after_return = returned; });
  returned = true;
  EXPECT_FALSE(granted_after_return);
  sim.Run();
  EXPECT_TRUE(granted_after_return);
  locks.ReleaseAll(1);
}

TEST(ShardedLockServiceTest, OppositeKeyOrdersDoNotDeadlock) {
  // Two acquirers whose key sets overlap on every shard, issued in the same
  // event tick. The (shard, key) total order means one of them wins every
  // common lock and the other queues behind it — never a cycle.
  Simulator sim;
  LockService locks(&sim, 0, RaftOptions{}, LocalMeshOptions{}, 4);
  std::vector<Key> keys = TestKeys();
  keys.resize(8);
  std::sort(keys.begin(), keys.end());
  std::vector<LockMode> modes(keys.size(), LockMode::kWrite);

  int granted = 0;
  locks.AcquireAll(7, keys, modes, [&] {
    ++granted;
    locks.ReleaseAll(7);
  });
  locks.AcquireAll(8, keys, modes, [&] {
    ++granted;
    locks.ReleaseAll(8);
  });
  sim.Run();
  EXPECT_EQ(granted, 2);
}

// --- Defaults create no shard instruments ------------------------------------

TEST(ShardDefaultsTest, SingletonServerRegistersNoShardScopedMetrics) {
  Simulator sim;
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;  // shards = 1.
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions());
  radical.RegisterFunction(Fn("reg_set", {"k", "v"}, {
      Write(In("k"), In("v")),
      Return(In("v")),
  }));
  radical.Seed("k", Value("v0"));
  radical.WarmCaches();
  int replies = 0;
  radical.Invoke(Region::kCA, "reg_set", {Value("k"), Value("v1")},
                 [&](Value) { ++replies; });
  sim.Run();
  ASSERT_EQ(replies, 1);
  // The gate: at the defaults the sharded machinery must be fully dormant —
  // no ".shard" scopes in either snapshot surface.
  EXPECT_EQ(sim.metrics().SnapshotText().find(".shard"), std::string::npos);
  EXPECT_EQ(sim.metrics().SnapshotJson().find(".shard"), std::string::npos);
}

// --- Fault sweep over the sharded path ----------------------------------------

class ShardedFaultSweepTest : public ::testing::Test {
 protected:
  ShardedFaultSweepTest() : sim_(777), net_(&sim_, LatencyMatrix::PaperDefault()) {
    RadicalConfig config;
    config.server.shards = 4;
    config.server.intent_timeout = Millis(500);
    config.retry.request_timeout = Millis(300);
    config.retry.max_lvi_attempts = 2;
    radical_ = std::make_unique<RadicalDeployment>(&sim_, &net_, config, DeploymentRegions());
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
    radical_->Seed("k", Value("v0"));
    radical_->WarmCaches();
  }

  void AddLoss(net::MessageKind kind, double probability) {
    net::DropRule rule;
    rule.kind = kind;
    rule.probability = probability;
    net_.fabric().AddDropRule(rule);
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<RadicalDeployment> radical_;
};

TEST_F(ShardedFaultSweepTest, ShardedPathStaysLinearizableUnderLossAndCrash) {
  AddLoss(net::MessageKind::kLviRequest, 0.1);
  AddLoss(net::MessageKind::kLviResponse, 0.1);
  AddLoss(net::MessageKind::kWriteFollowup, 0.1);

  HistoryRecorder history;
  Rng rng(424242);
  int unique = 0;
  const int total_ops = 60;
  for (int i = 0; i < total_ops; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const bool is_write = rng.NextBool(0.5);
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(6)));
    sim_.Schedule(at, [&, region, is_write] {
      const SimTime invoke = sim_.Now();
      if (is_write) {
        const Value value("w" + std::to_string(unique++));
        radical_->Invoke(region, "reg_write", {Value("k"), value}, [&, value, invoke](Value) {
          history.Record(HistoryOp{true, "k", value, invoke, sim_.Now()});
        });
      } else {
        radical_->Invoke(region, "reg_read", {Value("k")}, [&, invoke](Value result) {
          history.Record(HistoryOp{false, "k", std::move(result), invoke, sim_.Now()});
        });
      }
    });
  }

  // Crash mid-run: the pipelines in flight are volatile and vanish; their
  // clients must recover through retries like any lost request.
  while (radical_->server().counters().Get("lvi_requests") < 20 && sim_.Step()) {
  }
  ASSERT_GE(radical_->server().counters().Get("lvi_requests"), 20u);
  radical_->server().Crash();
  sim_.Schedule(Millis(1500), [&] { radical_->server().Recover(); });
  sim_.Run();

  // One final callback per Submit (a second completion of a request aborts
  // on done -> done).
  EXPECT_EQ(history.size(), static_cast<size_t>(total_ops));
  uint64_t requests = 0;
  uint64_t replies = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  for (const Region region : DeploymentRegions()) {
    const obs::MetricsScope counters = radical_->runtime(region).counters();
    EXPECT_EQ(counters.Get("requests"), counters.Get("replies"))
        << "region " << RegionName(region);
    requests += counters.Get("requests");
    replies += counters.Get("replies");
    retries += counters.Get("retries");
    timeouts += counters.Get("timeouts");
  }
  EXPECT_EQ(requests, static_cast<uint64_t>(total_ops));
  EXPECT_EQ(replies, static_cast<uint64_t>(total_ops));
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(retries, 0u);

  // The sharded path actually ran: per-shard instruments exist, and every
  // admitted LVI request was counted on its home shard, the shard that owns
  // "k", and nowhere else.
  EXPECT_NE(sim_.metrics().SnapshotText().find(".shard"), std::string::npos);
  const obs::MetricsScope server = radical_->server().counters();
  const int home = ShardRouter(4).ShardOf("k");
  uint64_t per_shard = 0;
  for (int shard = 0; shard < 4; ++shard) {
    const uint64_t admitted =
        obs::MetricsScope(&sim_.metrics(), server.prefix() + ".shard" + std::to_string(shard))
            .Get("lvi_requests");
    EXPECT_EQ(admitted > 0, shard == home) << "shard " << shard;
    per_shard += admitted;
  }
  EXPECT_EQ(per_shard, server.Get("lvi_requests"));
  EXPECT_GE(per_shard, 20u);

  const LinearizabilityResult result = CheckHistory(history, {{"k", Value("v0")}});
  EXPECT_TRUE(result.linearizable) << result.violation;
  EXPECT_TRUE(radical_->server().idle());
}

}  // namespace
}  // namespace radical
