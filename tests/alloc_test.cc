// Allocation-counter harness: pins the simulator core's zero-allocation
// claims (docs/sim.md).
//
// A replacement global operator new counts allocations while a test window
// is open. Each test warms the component under test past its high-water mark
// (slab chunks grown, scratch buffers at their largest message, fabric
// channels and counters created), then opens the window and drives the
// steady-state path: scheduling + firing events, sending + delivering
// envelopes, encoding protocol messages. The assertion is exactly zero
// allocations inside the window — not "few", zero — so any regression that
// reintroduces per-event or per-message heap traffic fails loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/lvi/codec.h"
#include "src/net/network.h"
#include "src/sim/region.h"
#include "src/sim/simulator.h"

namespace {

bool g_counting = false;
uint64_t g_alloc_count = 0;

void StartCounting() {
  g_alloc_count = 0;
  g_counting = true;
}

uint64_t StopCounting() {
  g_counting = false;
  return g_alloc_count;
}

}  // namespace

// Replacement allocation functions (C++ allows replacing these in any single
// translation unit of the program). new counts and mallocs; delete frees.
// The aligned overloads are deliberately not replaced: nothing on the paths
// under test over-aligns, and the default ones stay consistent with these
// (both sides are malloc/free based).
void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_alloc_count;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The deletes stay out of line: inlined into a caller, GCC would see free()
// applied to an operator-new pointer and report -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace radical {
namespace {

TEST(AllocTest, CounterSeesOrdinaryAllocations) {
  StartCounting();
  int* p = new int(7);
  const uint64_t count = StopCounting();
  delete p;
  EXPECT_GE(count, 1u);
}

TEST(AllocTest, SteadyStateEventsAllocateNothing) {
  Simulator sim(1);
  // Warm: grow the event-node slab to the run's high-water mark of pending
  // events, across the same mix of delays the measured window uses.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 500; ++i) {
      sim.Schedule(i % 97, [] {});
    }
    sim.Run();
  }
  StartCounting();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 500; ++i) {
      sim.Schedule(i % 97, [] {});
    }
    sim.Run();
  }
  EXPECT_EQ(StopCounting(), 0u);
  EXPECT_TRUE(sim.idle());
}

TEST(AllocTest, CancelChurnAllocatesNothing) {
  Simulator sim(1);
  // The retry-timer pattern: schedule far out, almost always cancel.
  std::vector<EventId> ids(256, kInvalidEventId);
  auto churn = [&] {
    for (int i = 0; i < 2000; ++i) {
      const size_t slot = static_cast<size_t>(i) % ids.size();
      if (ids[slot] != kInvalidEventId) {
        sim.Cancel(ids[slot]);
      }
      ids[slot] = sim.Schedule(1000 + i % 31, [] {});
    }
    sim.Run();
    ids.assign(ids.size(), kInvalidEventId);
  };
  churn();  // Warm.
  StartCounting();
  churn();
  EXPECT_EQ(StopCounting(), 0u);
}

TEST(AllocTest, DeliveredEnvelopeAllocatesNothing) {
  Simulator sim(1);
  Network net(&sim, LatencyMatrix::PaperDefault());
  const net::Endpoint& a = net.endpoint(Region::kCA);
  const net::Endpoint& b = net.endpoint(Region::kVA);
  int delivered = 0;
  auto burst = [&] {
    for (int i = 0; i < 200; ++i) {
      a.Send(b, net::MessageKind::kLviRequest, 256, [&delivered] { ++delivered; });
      b.Send(a, net::MessageKind::kLviResponse, 512, [&delivered] { ++delivered; });
    }
    sim.Run();
  };
  // Warm: create the two directed channels, their per-kind counters, and
  // the event-node slab.
  burst();
  ASSERT_EQ(delivered, 400);
  StartCounting();
  burst();
  EXPECT_EQ(StopCounting(), 0u);
  EXPECT_EQ(delivered, 800);
}

TEST(AllocTest, WireScratchEncodingAllocatesNothing) {
  WireScratch scratch;
  LviRequest request;
  request.exec_id = 42;
  request.origin = Region::kCA;
  request.function = "transfer";
  request.inputs = {Value("alice"), Value(static_cast<int64_t>(100))};
  request.items = {LviItem{"acct/alice", 3, LockMode::kWrite},
                   LviItem{"acct/bob", 5, LockMode::kRead}};
  WriteFollowup followup;
  followup.exec_id = 42;
  followup.writes = {BufferedWrite{"acct/alice", Value(static_cast<int64_t>(58))}};
  // Warm: the scratch buffer grows to the largest message once.
  const size_t request_size = scratch.SizeOf(request);
  const size_t followup_size = scratch.SizeOf(followup);
  ASSERT_GT(request_size, 0u);
  ASSERT_GT(followup_size, 0u);
  StartCounting();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(scratch.SizeOf(request), request_size);
    EXPECT_EQ(scratch.SizeOf(followup), followup_size);
  }
  EXPECT_EQ(StopCounting(), 0u);
}

}  // namespace
}  // namespace radical
