// Unit tests for src/common: Result, Value, Rng/Zipf, stats, strings, and
// the zero-allocation primitives (intrusive list, slab pool, inline task,
// checked state machine).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/inline_task.h"
#include "src/common/intrusive.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/slab.h"
#include "src/common/sm.h"
#include "src/common/stats.h"
#include "src/common/string_util.h"
#include "src/common/types.h"
#include "src/common/value.h"

namespace radical {
namespace {

// --- Result ------------------------------------------------------------------

TEST(ResultTest, OkCarriesValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, ErrorCarriesMessage) {
  Result<int> r = Result<int>::Error("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.message(), "boom");
}

TEST(ResultTest, StatusDefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(Status::Error("x").ok());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

// --- Types -------------------------------------------------------------------

TEST(TypesTest, DurationConversions) {
  EXPECT_EQ(Millis(3), 3000);
  EXPECT_EQ(Seconds(2), 2000000);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(7)), 7.0);
  EXPECT_DOUBLE_EQ(ToMillis(Micros(500)), 0.5);
}

// --- Value -------------------------------------------------------------------

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value().is_unit());
  EXPECT_TRUE(Value(static_cast<int64_t>(1)).is_int());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(ValueList{}).is_list());
}

TEST(ValueTest, DeepEquality) {
  Value a(ValueList{Value("x"), Value(static_cast<int64_t>(1))});
  Value b(ValueList{Value("x"), Value(static_cast<int64_t>(1))});
  Value c(ValueList{Value("x"), Value(static_cast<int64_t>(2))});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(Value("1"), Value(static_cast<int64_t>(1)));
}

TEST(ValueTest, StableHashIsDeterministicAndDiscriminating) {
  EXPECT_EQ(Value("abc").StableHash(), Value("abc").StableHash());
  EXPECT_NE(Value("abc").StableHash(), Value("abd").StableHash());
  EXPECT_NE(Value(static_cast<int64_t>(7)).StableHash(), Value("7").StableHash());
}

TEST(ValueTest, ToStringRendersNested) {
  Value v(ValueList{Value("a"), Value(static_cast<int64_t>(3))});
  EXPECT_EQ(v.ToString(), "[\"a\", 3]");
  EXPECT_EQ(Value().ToString(), "unit");
}

TEST(ValueTest, GtestPrintsTheRenderedValue) {
  EXPECT_EQ(::testing::PrintToString(Value("old")), "\"old\"");
  EXPECT_EQ(::testing::PrintToString(Value(ValueList{Value(int64_t{1})})), "[1]");
}

TEST(ValueTest, ApproxSizeCountsPayload) {
  EXPECT_EQ(Value("abcd").ApproxSizeBytes(), 4u);
  EXPECT_EQ(Value(static_cast<int64_t>(1)).ApproxSizeBytes(), 8u);
  EXPECT_GT(Value(ValueList{Value("abcd"), Value("ef")}).ApproxSizeBytes(), 6u);
}

TEST(ValueTest, ListCopyIsShallowButImmutable) {
  Value a(ValueList{Value("x")});
  Value b = a;  // Shares the list representation.
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.AsList().size(), 1u);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

// --- Zipf ----------------------------------------------------------------------

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfGenerator zipf(10, 0.0);
  EXPECT_NEAR(zipf.Pmf(0), 0.1, 1e-9);
  EXPECT_NEAR(zipf.Pmf(9), 0.1, 1e-9);
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  ZipfGenerator zipf(1000, 0.99);
  EXPECT_GT(zipf.Pmf(0), 0.1);      // Rank 0 is very popular.
  EXPECT_LT(zipf.Pmf(999), 0.001);  // The tail is not.
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
}

TEST(ZipfTest, SamplesMatchPmf) {
  ZipfGenerator zipf(100, 0.99);
  Rng rng(31);
  std::vector<int> counts(100, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, zipf.Pmf(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, zipf.Pmf(1), 0.01);
}

TEST(ZipfTest, SamplesAlwaysInRange) {
  ZipfGenerator zipf(5, 0.99);
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 5u);
  }
}

// --- Stats ----------------------------------------------------------------------

TEST(StatsTest, PercentilesOfKnownDistribution) {
  LatencySampler s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(Millis(i));
  }
  EXPECT_NEAR(s.MedianMs(), 50.5, 0.01);
  EXPECT_NEAR(s.PercentileMs(0), 1.0, 0.01);
  EXPECT_NEAR(s.PercentileMs(100), 100.0, 0.01);
  EXPECT_NEAR(s.PercentileMs(99), 99.01, 0.1);
}

TEST(StatsTest, SingleSample) {
  LatencySampler s;
  s.Add(Millis(42));
  EXPECT_DOUBLE_EQ(s.MedianMs(), 42.0);
  EXPECT_DOUBLE_EQ(s.PercentileMs(99), 42.0);
}

// Regression: PercentileMs on an empty sampler used to read samples_[0] —
// undefined behavior in release builds where the assert compiled away. It
// now returns 0.0 like MeanMs.
TEST(StatsTest, EmptySamplerPercentileIsZero) {
  const LatencySampler s;
  EXPECT_DOUBLE_EQ(s.PercentileMs(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.PercentileMs(50.0), 0.0);
  EXPECT_DOUBLE_EQ(s.PercentileMs(100.0), 0.0);
  EXPECT_DOUBLE_EQ(s.MeanMs(), 0.0);
  EXPECT_EQ(s.Summarize().count, 0u);
}

TEST(StatsTest, SingleSampleIsEveryPercentile) {
  LatencySampler s;
  s.Add(Millis(7));
  for (const double pct : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(s.PercentileMs(pct), 7.0) << "pct=" << pct;
  }
}

TEST(StatsTest, TwoSampleInterpolation) {
  LatencySampler s;
  s.Add(Millis(20));
  s.Add(Millis(10));  // Unsorted insertion order on purpose.
  EXPECT_DOUBLE_EQ(s.PercentileMs(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.PercentileMs(25.0), 12.5);
  EXPECT_DOUBLE_EQ(s.PercentileMs(50.0), 15.0);
  EXPECT_DOUBLE_EQ(s.PercentileMs(100.0), 20.0);
}

TEST(StatsTest, MergeCombinesSamples) {
  LatencySampler a;
  LatencySampler b;
  a.Add(Millis(1));
  b.Add(Millis(3));
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.MeanMs(), 2.0, 1e-9);
}

TEST(StatsTest, SummaryFields) {
  LatencySampler s;
  for (int i = 1; i <= 10; ++i) {
    s.Add(Millis(i * 10));
  }
  const Summary sum = s.Summarize();
  EXPECT_EQ(sum.count, 10u);
  EXPECT_DOUBLE_EQ(sum.min_ms, 10.0);
  EXPECT_DOUBLE_EQ(sum.max_ms, 100.0);
  EXPECT_NEAR(sum.mean_ms, 55.0, 1e-9);
}

TEST(StatsTest, AddAfterQueryResorts) {
  LatencySampler s;
  s.Add(Millis(10));
  EXPECT_DOUBLE_EQ(s.MedianMs(), 10.0);
  s.Add(Millis(2));
  EXPECT_DOUBLE_EQ(s.PercentileMs(0), 2.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(10.0, 100.0);
  h.Add(Millis(5));
  h.Add(Millis(15));
  h.Add(Millis(500));  // Overflow bucket.
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(h.bucket_count() - 1), 1u);
}

TEST(HistogramTest, FractionBetween) {
  Histogram h(1.0, 100.0);
  for (int i = 0; i < 10; ++i) {
    h.Add(Millis(i < 7 ? 5 : 50));
  }
  EXPECT_NEAR(h.FractionBetween(0, 10), 0.7, 1e-9);
  EXPECT_NEAR(h.FractionBetween(40, 60), 0.3, 1e-9);
}

TEST(CountersTest, IncrementAndRatio) {
  Counters c;
  c.Increment("a", 3);
  c.Increment("b");
  EXPECT_EQ(c.Get("a"), 3u);
  EXPECT_EQ(c.Get("missing"), 0u);
  EXPECT_NEAR(c.RatioOf("a", "b"), 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(Counters().RatioOf("x", "y"), 0.0);
}

// --- Strings ---------------------------------------------------------------------

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadLeft("x", 3), "  x");
  EXPECT_EQ(PadRight("x", 3), "x  ");
  EXPECT_EQ(PadLeft("xyz", 2), "xyz");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("timeline:u1", "timeline:"));
  EXPECT_FALSE(StartsWith("tim", "timeline:"));
}

// --- IntrusiveList -----------------------------------------------------------

struct LinkedItem {
  explicit LinkedItem(int item_id) : id(item_id) {}

  int id;
  IntrusiveLink link;
};

using ItemList = IntrusiveList<LinkedItem, &LinkedItem::link>;

TEST(IntrusiveListTest, PushPopIsFifo) {
  LinkedItem a{1}, b{2}, c{3};
  ItemList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.PopFront(), nullptr);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.front(), &a);
  EXPECT_EQ(list.back(), &c);
  EXPECT_EQ(list.PopFront(), &a);
  EXPECT_EQ(list.PopFront(), &b);
  EXPECT_EQ(list.PopFront(), &c);
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(a.link.detached());
}

TEST(IntrusiveListTest, PushFrontAndRemoveMiddle) {
  LinkedItem a{1}, b{2}, c{3};
  ItemList list;
  list.PushFront(&a);
  list.PushFront(&b);  // b, a
  list.PushBack(&c);   // b, a, c
  list.Remove(&a);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(a.link.detached());
  EXPECT_EQ(list.PopFront(), &b);
  EXPECT_EQ(list.PopFront(), &c);
}

TEST(IntrusiveListTest, NextWalksToNullptr) {
  LinkedItem a{1}, b{2}, c{3};
  ItemList list;
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  std::vector<int> seen;
  for (LinkedItem* n = list.front(); n != nullptr; n = list.Next(n)) {
    seen.push_back(n->id);
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  while (list.PopFront() != nullptr) {
  }
}

TEST(IntrusiveListTest, UnlinkIsIdempotent) {
  LinkedItem a{1};
  ItemList list;
  list.PushBack(&a);
  list.Remove(&a);
  a.link.Unlink();  // Already detached: no-op.
  EXPECT_TRUE(a.link.detached());
}

// --- SlabPool ----------------------------------------------------------------

struct SlabItem {
  uint32_t slab_index = 0;
  SlabItem* slab_next_free = nullptr;
  int payload = 0;
};

TEST(SlabPoolTest, AllocatesAscendingThenReusesLifo) {
  SlabPool<SlabItem, 4> pool;
  EXPECT_EQ(pool.capacity(), 0u);
  SlabItem* first = pool.Allocate();
  EXPECT_EQ(first->slab_index, 0u);
  EXPECT_EQ(pool.capacity(), 4u);
  SlabItem* second = pool.Allocate();
  EXPECT_EQ(second->slab_index, 1u);
  EXPECT_EQ(pool.live(), 2u);
  // LIFO: the most recently released slot comes back first.
  pool.Release(second);
  pool.Release(first);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.Allocate(), first);
  EXPECT_EQ(pool.Allocate(), second);
}

TEST(SlabPoolTest, AddressesAreStableAcrossGrowth) {
  SlabPool<SlabItem, 4> pool;
  std::vector<SlabItem*> slots;
  for (int i = 0; i < 64; ++i) {
    SlabItem* s = pool.Allocate();
    s->payload = i;
    slots.push_back(s);
  }
  EXPECT_EQ(pool.capacity(), 64u);
  for (int i = 0; i < 64; ++i) {
    // Growth appended chunks without moving earlier ones, and the index
    // round-trips through At().
    EXPECT_EQ(slots[i]->payload, i);
    EXPECT_EQ(&pool.At(slots[i]->slab_index), slots[i]);
  }
  for (SlabItem* s : slots) {
    pool.Release(s);
  }
}

TEST(SlabPoolTest, SteadyStateChurnNeverGrows) {
  SlabPool<SlabItem, 4> pool;
  SlabItem* warm = pool.Allocate();
  pool.Release(warm);
  const uint32_t capacity = pool.capacity();
  for (int i = 0; i < 1000; ++i) {
    SlabItem* s = pool.Allocate();
    pool.Release(s);
  }
  EXPECT_EQ(pool.capacity(), capacity);
}

// --- InlineTask --------------------------------------------------------------

TEST(InlineTaskTest, InvokesStoredClosure) {
  int calls = 0;
  InlineTask task([&calls] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(task));
  task();
  task();
  EXPECT_EQ(calls, 2);
}

TEST(InlineTaskTest, InvokeAndResetLeavesEmpty) {
  int calls = 0;
  InlineTask task([&calls] { ++calls; });
  task.InvokeAndReset();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(static_cast<bool>(task));
}

TEST(InlineTaskTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineTask task([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  InlineTask moved(std::move(task));
  EXPECT_FALSE(static_cast<bool>(task));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(counter.use_count(), 2);
  moved();
  EXPECT_EQ(*counter, 1);
  moved.Reset();
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineTaskTest, EmplaceReplacesAndDestroysOld) {
  auto old_capture = std::make_shared<int>(0);
  InlineTask task([old_capture] {});
  EXPECT_EQ(old_capture.use_count(), 2);
  int calls = 0;
  task.Emplace([&calls] { ++calls; });
  EXPECT_EQ(old_capture.use_count(), 1);  // Old closure destroyed.
  task();
  EXPECT_EQ(calls, 1);
}

TEST(InlineTaskTest, EmplacingAnInlineTaskMovesIt) {
  int calls = 0;
  InlineTask inner([&calls] { ++calls; });
  InlineTask outer;
  outer.Emplace(std::move(inner));
  EXPECT_FALSE(static_cast<bool>(inner));  // NOLINT(bugprone-use-after-move)
  outer();
  EXPECT_EQ(calls, 1);
}

TEST(InlineTaskTest, ObservablyEmptyDuringInvokeAndReset) {
  // The dispatch contract: the task reads as empty while its callback runs
  // (a self-Cancel-style probe sees "nothing stored"), and is reusable once
  // the call returns. The callback must NOT Emplace into the task it is
  // executing from — the event queue keeps a firing node out of the slab
  // until the callback returns for exactly that reason.
  InlineTask task;
  bool empty_during_invoke = false;
  task.Emplace([&] { empty_during_invoke = !static_cast<bool>(task); });
  task.InvokeAndReset();
  EXPECT_TRUE(empty_during_invoke);
  EXPECT_FALSE(static_cast<bool>(task));
  int calls = 0;
  task.Emplace([&calls] { ++calls; });
  task.InvokeAndReset();
  EXPECT_EQ(calls, 1);
}

// --- Sm ----------------------------------------------------------------------

enum class TestPhase : uint32_t { kIdle = 0, kRunning, kDone };

constexpr SmStateSpec kTestPhaseSpec[] = {
    {"idle", SmMask(TestPhase::kRunning)},
    {"running", SmMask(TestPhase::kDone) | SmMask(TestPhase::kIdle) |
                    SmMask(TestPhase::kRunning)},
    {"done", 0},
};

TEST(SmTest, LegalPathMoves) {
  Sm<TestPhase> sm(kTestPhaseSpec, TestPhase::kIdle);
  EXPECT_TRUE(sm.Is(TestPhase::kIdle));
  EXPECT_STREQ(sm.name(), "idle");
  sm.Move(TestPhase::kRunning);
  sm.Move(TestPhase::kRunning);  // Declared self-loop.
  sm.Move(TestPhase::kIdle);
  sm.Move(TestPhase::kRunning);
  sm.Move(TestPhase::kDone);
  EXPECT_STREQ(sm.name(), "done");
  EXPECT_EQ(sm.state(), TestPhase::kDone);
}

TEST(SmTest, CanMoveMatchesSpec) {
  Sm<TestPhase> sm(kTestPhaseSpec, TestPhase::kIdle);
  EXPECT_TRUE(sm.CanMove(TestPhase::kRunning));
  EXPECT_FALSE(sm.CanMove(TestPhase::kDone));
  EXPECT_FALSE(sm.CanMove(TestPhase::kIdle));  // Undeclared self-loop.
  sm.Move(TestPhase::kRunning);
  sm.Move(TestPhase::kDone);
  EXPECT_FALSE(sm.CanMove(TestPhase::kIdle));
  EXPECT_FALSE(sm.CanMove(TestPhase::kRunning));
}

TEST(SmTest, CopiesEvolveIndependently) {
  // Completion lambdas carry the machine by value; the copy keeps checking.
  Sm<TestPhase> original(kTestPhaseSpec, TestPhase::kIdle);
  original.Move(TestPhase::kRunning);
  Sm<TestPhase> copy = original;
  copy.Move(TestPhase::kDone);
  EXPECT_TRUE(original.Is(TestPhase::kRunning));
  EXPECT_TRUE(copy.Is(TestPhase::kDone));
}

TEST(SmDeathTest, IllegalTransitionAborts) {
  Sm<TestPhase> sm(kTestPhaseSpec, TestPhase::kIdle);
  EXPECT_DEATH(sm.Move(TestPhase::kDone), "illegal transition idle -> done");
}

}  // namespace
}  // namespace radical
