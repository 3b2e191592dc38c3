// Linearizability property tests: the checker itself, then randomized
// register histories driven through a full Radical deployment — including
// under message loss, and on every deployment profile — must always
// linearize (§3.6).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "src/check/linearizability.h"
#include "src/common/rng.h"
#include "src/func/builder.h"
#include "src/radical/deployment.h"
#include "tests/deployment_profile.h"

namespace radical {
namespace {

// --- Checker unit tests -----------------------------------------------------------

HistoryOp Op(bool is_write, const Key& key, Value value, SimTime invoke, SimTime response) {
  return HistoryOp{is_write, key, std::move(value), invoke, response};
}

TEST(CheckerTest, SequentialReadAfterWriteIsLinearizable) {
  const std::vector<HistoryOp> ops = {
      Op(true, "k", Value("a"), 0, 10),
      Op(false, "k", Value("a"), 20, 30),
  };
  EXPECT_TRUE(CheckRegisterHistory(ops, Value()).linearizable);
}

TEST(CheckerTest, ReadOfNeverWrittenValueFails) {
  const std::vector<HistoryOp> ops = {
      Op(true, "k", Value("a"), 0, 10),
      Op(false, "k", Value("ghost"), 20, 30),
  };
  EXPECT_FALSE(CheckRegisterHistory(ops, Value()).linearizable);
}

TEST(CheckerTest, StaleReadAfterWriteCompletesFails) {
  // Write of "b" completes at 10; a read starting at 20 returning the old
  // value "a" violates real-time order.
  const std::vector<HistoryOp> ops = {
      Op(true, "k", Value("a"), 0, 5),
      Op(true, "k", Value("b"), 6, 10),
      Op(false, "k", Value("a"), 20, 30),
  };
  EXPECT_FALSE(CheckRegisterHistory(ops, Value()).linearizable);
}

TEST(CheckerTest, ConcurrentReadMayReturnEitherValue) {
  // The read overlaps the write: both old and new values are legal.
  const std::vector<HistoryOp> old_read = {
      Op(true, "k", Value("new"), 10, 30),
      Op(false, "k", Value("init"), 15, 25),
  };
  EXPECT_TRUE(CheckRegisterHistory(old_read, Value("init")).linearizable);
  const std::vector<HistoryOp> new_read = {
      Op(true, "k", Value("new"), 10, 30),
      Op(false, "k", Value("new"), 15, 25),
  };
  EXPECT_TRUE(CheckRegisterHistory(new_read, Value("init")).linearizable);
}

TEST(CheckerTest, ReadYourOwnCompletedWrite) {
  // A client reads "old" after its own later write completed: violation.
  const std::vector<HistoryOp> ops = {
      Op(true, "k", Value("v1"), 0, 10),
      Op(true, "k", Value("v2"), 11, 20),
      Op(false, "k", Value("v1"), 21, 30),
      Op(false, "k", Value("v2"), 31, 40),
  };
  EXPECT_FALSE(CheckRegisterHistory(ops, Value()).linearizable);
}

TEST(CheckerTest, NonMonotonicReadsFail) {
  // Two sequential reads observing v2 then v1 cannot be linearized.
  const std::vector<HistoryOp> ops = {
      Op(true, "k", Value("v1"), 0, 5),
      Op(true, "k", Value("v2"), 0, 5),
      Op(false, "k", Value("v2"), 10, 15),
      Op(false, "k", Value("v1"), 20, 25),
  };
  EXPECT_FALSE(CheckRegisterHistory(ops, Value()).linearizable);
}

TEST(CheckerTest, InitialValueReadable) {
  const std::vector<HistoryOp> ops = {Op(false, "k", Value("init"), 0, 10)};
  EXPECT_TRUE(CheckRegisterHistory(ops, Value("init")).linearizable);
  EXPECT_FALSE(CheckRegisterHistory(ops, Value("other")).linearizable);
}

TEST(CheckerTest, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(CheckRegisterHistory({}, Value()).linearizable);
}

TEST(CheckerTest, CompositionalAcrossKeys) {
  HistoryRecorder history;
  history.Record(Op(true, "a", Value("x"), 0, 10));
  history.Record(Op(false, "a", Value("x"), 20, 30));
  history.Record(Op(true, "b", Value("y"), 5, 15));
  history.Record(Op(false, "b", Value("ghost"), 40, 50));  // Violation on b only.
  const LinearizabilityResult result = CheckHistory(history, {});
  EXPECT_FALSE(result.linearizable);
  EXPECT_NE(result.violation.find("b"), std::string::npos);
}

// --- Differential validation of the checker itself -----------------------------

// Reference oracle: brute-force permutation search (exact for tiny
// histories). Tries every order; accepts if some order respects real time
// and register semantics.
bool BruteForceLinearizable(std::vector<HistoryOp> ops, const Value& initial) {
  std::vector<size_t> order(ops.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end());
  do {
    Value reg = initial;
    bool ok = true;
    for (size_t i = 0; i < order.size() && ok; ++i) {
      // Real-time: an op may not be ordered after one it strictly precedes.
      for (size_t j = i + 1; j < order.size() && ok; ++j) {
        if (ops[order[j]].response < ops[order[i]].invoke) {
          ok = false;
        }
      }
      if (!ok) {
        break;
      }
      const HistoryOp& op = ops[order[i]];
      if (op.is_write) {
        reg = op.value;
      } else if (!(op.value == reg)) {
        ok = false;
      }
    }
    if (ok) {
      return true;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return false;
}

TEST(CheckerDifferentialTest, AgreesWithBruteForceOnRandomHistories) {
  Rng rng(31415);
  for (int trial = 0; trial < 400; ++trial) {
    // Random tiny histories: 2-6 ops, values from a small pool so reads of
    // stale values occur; overlapping intervals.
    const size_t n = 2 + rng.NextBelow(5);
    std::vector<HistoryOp> ops;
    for (size_t i = 0; i < n; ++i) {
      HistoryOp op;
      op.is_write = rng.NextBool(0.5);
      op.key = "k";
      op.value = Value("v" + std::to_string(rng.NextBelow(3)));
      op.invoke = static_cast<SimTime>(rng.NextBelow(20));
      op.response = op.invoke + 1 + static_cast<SimTime>(rng.NextBelow(15));
      ops.push_back(op);
    }
    const bool brute = BruteForceLinearizable(ops, Value("v0"));
    const bool wgl = CheckRegisterHistory(ops, Value("v0")).linearizable;
    ASSERT_EQ(wgl, brute) << "trial " << trial << ": checker disagrees with brute force";
  }
}

// Histories of up to eight ops, read-heavy so that the read-absorption step
// of the search runs on most of them. Values come from a pool of three (one
// of them the initial value), so both verdicts occur often.
TEST(CheckerDifferentialTest, AgreesWithBruteForceOnHistoriesOfUpToEightOps) {
  Rng rng(2718);
  int linearizable = 0;
  int violations = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 1 + rng.NextBelow(8);
    std::vector<HistoryOp> ops;
    for (size_t i = 0; i < n; ++i) {
      HistoryOp op;
      op.is_write = rng.NextBool(0.35);
      op.key = "k";
      op.value = Value("v" + std::to_string(rng.NextBelow(3)));
      op.invoke = static_cast<SimTime>(rng.NextBelow(24));
      op.response = op.invoke + static_cast<SimTime>(rng.NextBelow(20));
      ops.push_back(op);
    }
    const bool brute = BruteForceLinearizable(ops, Value("v0"));
    const bool wgl = CheckRegisterHistory(ops, Value("v0")).linearizable;
    ASSERT_EQ(wgl, brute) << "trial " << trial << ": checker disagrees with brute force";
    ++(brute ? linearizable : violations);
  }
  EXPECT_GE(linearizable, 60) << violations << " violations";
  EXPECT_GE(violations, 60) << linearizable << " linearizable";
}

// --- End-to-end property: Radical histories linearize ------------------------------

NetworkOptions NoJitter() {
  NetworkOptions options;
  options.jitter_stddev_frac = 0.0;
  return options;
}

// Fault injected into a random-history run once the deployment is built.
using Perturbation = std::function<void(Network&, RadicalDeployment&)>;

// Random reads and writes of three registers from every region over three
// seconds, checked for linearizability.
void RunRandomHistory(const DeploymentProfile& profile, uint64_t seed, int ops_per_key,
                      const Perturbation& perturb = {}) {
  Simulator sim(seed);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  RadicalConfig config;
  // Tight intent timer so dropped followups re-execute within the test.
  config.server.intent_timeout = Millis(400);
  ProfiledDeployment radical(profile, &sim, &net, config, DeploymentRegions());
  if (perturb) {
    perturb(net, radical);
  }
  radical.RegisterFunction(Fn("reg_read", {"k"}, {
      Read("v", In("k")),
      Compute(Millis(30)),
      Return(V("v")),
  }));
  radical.RegisterFunction(Fn("reg_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Compute(Millis(30)),
      Return(In("v")),
  }));
  const std::vector<Key> keys = {"r0", "r1", "r2"};
  std::map<Key, Value> initials;
  for (const Key& key : keys) {
    radical.Seed(key, Value("init-" + key));
    initials[key] = Value("init-" + key);
  }
  radical.WarmCaches();
  HistoryRecorder history;
  Rng rng(seed * 31 + 7);
  int unique = 0;
  int in_flight = 0;
  // Issue operations from random regions at random times.
  const int total_ops = ops_per_key * static_cast<int>(keys.size());
  for (int i = 0; i < total_ops; ++i) {
    const Region region =
        DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const Key key = keys[rng.NextBelow(keys.size())];
    const bool is_write = rng.NextBool(0.4);
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(3)));
    sim.Schedule(at, [&, region, key, is_write] {
      ++in_flight;
      const SimTime invoke = sim.Now();
      if (is_write) {
        const Value value("w" + std::to_string(unique++));
        radical.Invoke(region, "reg_write", {Value(key), value},
                       [&, key, value, invoke](Value) {
                         history.Record(HistoryOp{true, key, value, invoke, sim.Now()});
                         --in_flight;
                       });
      } else {
        radical.Invoke(region, "reg_read", {Value(key)},
                       [&, key, invoke](Value result) {
                         history.Record(
                             HistoryOp{false, key, std::move(result), invoke, sim.Now()});
                         --in_flight;
                       });
      }
    });
  }
  sim.Run();
  EXPECT_EQ(in_flight, 0);
  EXPECT_EQ(history.size(), static_cast<size_t>(total_ops));
  const LinearizabilityResult result = CheckHistory(history, initials);
  EXPECT_TRUE(result.linearizable) << result.violation;
  EXPECT_TRUE(radical.server().idle());
}

// RandomHistoriesLinearize for one seed on one profile.
class RadicalLinearizabilityTest : public ProfiledTest {
 public:
  RadicalLinearizabilityTest(const DeploymentProfile& profile, uint64_t seed)
      : ProfiledTest(profile), seed_(seed) {}

  void TestBody() override { RunRandomHistory(profile(), seed_, 18); }

 private:
  const uint64_t seed_;
};

// Seeds 1-8 on every profile. The singleton instances keep the names of the
// TEST_P they replace: Seeds/RadicalLinearizabilityTest.
// RandomHistoriesLinearize/<seed>.
[[maybe_unused]] const bool kRandomHistoriesRegistered = [] {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RegisterProfileTests<RadicalLinearizabilityTest>(
        "RadicalLinearizabilityTest", "RandomHistoriesLinearize/" + std::to_string(seed),
        __FILE__, __LINE__,
        [seed](const DeploymentProfile& profile) {
          return new RadicalLinearizabilityTest(profile, seed);
        },
        "Seeds");
  }
  return true;
}();

class RadicalLinearizabilityEdgeTest : public ProfiledTest {
 protected:
  using ProfiledTest::ProfiledTest;
};

// Cache pushes are an optimization, not part of the protocol: losing half of
// them changes nothing a client can observe about consistency.
PROFILE_TEST(RadicalLinearizabilityEdgeTest, LinearizableWithHalfOfCachePushesDropped) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunRandomHistory(profile(), seed, 18, [](Network& net, RadicalDeployment&) {
      net::DropRule rule;
      rule.kind = net::MessageKind::kCachePush;
      rule.probability = 0.5;
      net.fabric().AddDropRule(rule);
    });
  }
}

// Pushes that land after the cache already holds a newer version (from a
// validation repair or a later push) are ignored, never installed over it.
PROFILE_TEST(RadicalLinearizabilityEdgeTest, LinearizableWithCachePushesLandingLate) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunRandomHistory(profile(), seed, 18, [seed](Network& net, RadicalDeployment& radical) {
      SimDuration extra = Millis(150);
      for (const Region region : DeploymentRegions()) {
        net.fabric().InjectDelaySpike(radical.push_endpoint().id(),
                                      radical.runtime(region).endpoint().id(),
                                      extra * static_cast<SimDuration>(seed), Seconds(60));
        extra += Millis(100);
      }
    });
  }
}

PROFILE_TEST(RadicalLinearizabilityEdgeTest, WritesVisibleInRealTimeOrderAcrossRegions) {
  Simulator sim(4242);
  Network net(&sim, LatencyMatrix::PaperDefault(), NoJitter());
  ProfiledDeployment radical(profile(), &sim, &net, RadicalConfig{}, DeploymentRegions());
  radical.RegisterFunction(Fn("reg_read", {"k"}, {Read("v", In("k")), Return(V("v"))}));
  radical.RegisterFunction(
      Fn("reg_write", {"k", "v"}, {Write(In("k"), In("v")), Return(In("v"))}));
  radical.Seed("k", Value("v0"));
  radical.WarmCaches();
  // CA writes and completes; any read invoked afterwards (from anywhere)
  // must see the new value.
  bool write_done = false;
  radical.Invoke(Region::kCA, "reg_write", {Value("k"), Value("v1")},
                 [&](Value) { write_done = true; });
  sim.Run();
  ASSERT_TRUE(write_done);
  for (const Region region : DeploymentRegions()) {
    Value read_result;
    radical.Invoke(region, "reg_read", {Value("k")},
                   [&](Value v) { read_result = std::move(v); });
    sim.Run();
    EXPECT_EQ(read_result, Value("v1")) << RegionName(region);
  }
}

}  // namespace
}  // namespace radical
