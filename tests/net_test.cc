// Unit tests for the unified transport layer (src/net): FIFO channels,
// partitions, delay spikes, the bandwidth/serialization model, drop rules,
// and seed-determinism of the per-link counters.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/simulator.h"

namespace radical {
namespace {

using net::DropRule;
using net::Endpoint;
using net::EndpointInfo;
using net::Fabric;
using net::LinkModel;
using net::MessageKind;

// A uniform link model: fixed propagation, optional jitter and bandwidth.
Fabric::LinkModelFn UniformModel(SimDuration propagation, double jitter = 0.0,
                                 uint64_t bandwidth = 0) {
  return [propagation, jitter, bandwidth](const EndpointInfo&, const EndpointInfo&) {
    LinkModel model;
    model.propagation_delay = propagation;
    model.jitter_stddev_frac = jitter;
    model.bandwidth_bytes_per_sec = bandwidth;
    return model;
  };
}

TEST(ChannelTest, FifoEvenUnderHeavyJitter) {
  Simulator sim(42);
  Fabric fabric(&sim, UniformModel(Millis(10), /*jitter=*/0.5));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    a.Send(b, MessageKind::kGeneric, 128, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i) << "message " << i << " was reordered";
  }
}

TEST(ChannelTest, BandwidthSerializationAndQueueing) {
  Simulator sim(1);
  // 1 MB/s: a 1000-byte message occupies the link for exactly 1000 us.
  Fabric fabric(&sim, UniformModel(Millis(10), /*jitter=*/0.0, /*bandwidth=*/1'000'000));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  SimTime first = 0;
  SimTime second = 0;
  a.Send(b, MessageKind::kGeneric, 1000, [&] { first = sim.Now(); });
  a.Send(b, MessageKind::kGeneric, 1000, [&] { second = sim.Now(); });
  sim.Run();
  // First: serialization (1 ms) + propagation (10 ms).
  EXPECT_EQ(first, Millis(11));
  // Second queued behind the first transmission: +1 ms queue wait.
  EXPECT_EQ(second, Millis(12));
  const net::LinkStats* stats = fabric.StatsFor(a.id(), b.id());
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->messages_sent, 2u);
  EXPECT_EQ(stats->bytes_sent, 2000u);
  // Queue waits were 0 and 1000 us.
  EXPECT_NEAR(stats->queue_delay.PercentileMs(99), 1.0, 0.02);
}

TEST(ChannelTest, InfiniteBandwidthHasNoQueueing) {
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(10)));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  SimTime second = 0;
  a.Send(b, MessageKind::kGeneric, 1 << 20, [] {});
  a.Send(b, MessageKind::kGeneric, 1 << 20, [&] { second = sim.Now(); });
  sim.Run();
  EXPECT_EQ(second, Millis(10));
}

TEST(FabricTest, EndpointPartitionAndHeal) {
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(1)));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  fabric.SetEndpointPartitioned(a.id(), b.id(), true);
  EXPECT_TRUE(fabric.IsEndpointPartitioned(a.id(), b.id()));
  int delivered = 0;
  a.Send(b, MessageKind::kGeneric, 128, [&] { ++delivered; });
  b.Send(a, MessageKind::kGeneric, 128, [&] { ++delivered; });  // Both directions cut.
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fabric.messages_dropped(), 2u);
  fabric.SetEndpointPartitioned(a.id(), b.id(), false);
  a.Send(b, MessageKind::kGeneric, 128, [&] { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(FabricTest, IsolationCutsAllLinksOfOneEndpoint) {
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(1)));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  const Endpoint c = fabric.AddEndpoint("c", Region::kVA);
  fabric.Isolate(b.id(), true);
  int delivered = 0;
  a.Send(b, MessageKind::kGeneric, 128, [&] { ++delivered; });
  b.Send(c, MessageKind::kGeneric, 128, [&] { ++delivered; });
  a.Send(c, MessageKind::kGeneric, 128, [&] { ++delivered; });  // Unaffected.
  sim.Run();
  EXPECT_EQ(delivered, 1);
  fabric.Isolate(b.id(), false);
  a.Send(b, MessageKind::kGeneric, 128, [&] { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 2);
}

TEST(FabricTest, RegionPartition) {
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(1)));
  const Endpoint va = fabric.AddEndpoint("va", Region::kVA);
  const Endpoint jp = fabric.AddEndpoint("jp", Region::kJP);
  fabric.SetRegionPartitioned(Region::kVA, Region::kJP, true);
  bool delivered = false;
  va.Send(jp, MessageKind::kGeneric, 128, [&] { delivered = true; });
  sim.Run();
  EXPECT_FALSE(delivered);
  fabric.SetRegionPartitioned(Region::kVA, Region::kJP, false);
  va.Send(jp, MessageKind::kGeneric, 128, [&] { delivered = true; });
  sim.Run();
  EXPECT_TRUE(delivered);
}

TEST(FabricTest, DelaySpikeAppliesUntilExpiry) {
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(10)));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  fabric.InjectDelaySpike(a.id(), b.id(), Millis(5), Millis(100));
  SimTime spiked = 0;
  a.Send(b, MessageKind::kGeneric, 128, [&] { spiked = sim.Now(); });
  sim.Run();
  EXPECT_EQ(spiked, Millis(15));  // 10 ms propagation + 5 ms spike.
  // Past the spike's window the link is back to nominal.
  sim.RunUntil(Millis(200));
  SimTime normal_sent = sim.Now();
  SimTime normal = 0;
  a.Send(b, MessageKind::kGeneric, 128, [&] { normal = sim.Now(); });
  sim.Run();
  EXPECT_EQ(normal - normal_sent, Millis(10));
}

TEST(FabricTest, DropRuleMatchesKindAndEndpoint) {
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(1)));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  const Endpoint c = fabric.AddEndpoint("c", Region::kVA);
  DropRule rule;
  rule.kind = MessageKind::kWriteFollowup;
  rule.from = a.id();
  const int id = fabric.AddDropRule(rule);
  int delivered = 0;
  a.Send(b, MessageKind::kWriteFollowup, 128, [&] { ++delivered; });  // Dropped.
  a.Send(b, MessageKind::kGeneric, 128, [&] { ++delivered; });        // Wrong kind.
  c.Send(b, MessageKind::kWriteFollowup, 128, [&] { ++delivered; });  // Wrong sender.
  sim.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(fabric.RuleDrops(id), 1u);
  EXPECT_EQ(fabric.drops_of(MessageKind::kWriteFollowup), 1u);
  fabric.RemoveDropRule(id);
  a.Send(b, MessageKind::kWriteFollowup, 128, [&] { ++delivered; });
  sim.Run();
  EXPECT_EQ(delivered, 3);
}

TEST(FabricTest, DropRuleDisarmsAfterMaxDrops) {
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(1)));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  DropRule rule;
  rule.any_kind = true;
  rule.max_drops = 2;
  const int id = fabric.AddDropRule(rule);
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    a.Send(b, MessageKind::kGeneric, 128, [&] { ++delivered; });
  }
  sim.Run();
  EXPECT_EQ(delivered, 3);  // First two dropped, rule disarmed.
  EXPECT_EQ(fabric.RuleDrops(id), 2u);
}

TEST(FabricTest, PerKindCountersTrackOfferedTraffic) {
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(1)));
  const Endpoint va = fabric.AddEndpoint("va", Region::kVA);
  const Endpoint jp = fabric.AddEndpoint("jp", Region::kJP);
  va.Send(jp, MessageKind::kLviRequest, 200, [] {});
  jp.Send(va, MessageKind::kLviResponse, 300, [] {});
  va.Send(va, MessageKind::kGeneric, 50, [] {});  // Intra-region loop.
  sim.Run();
  EXPECT_EQ(fabric.messages_of(MessageKind::kLviRequest), 1u);
  EXPECT_EQ(fabric.bytes_of(MessageKind::kLviResponse), 300u);
  EXPECT_EQ(fabric.bytes_sent(), 550u);
  EXPECT_EQ(fabric.wan_bytes_sent(), 500u);  // The intra-region 50 is not WAN.
}

TEST(FabricTest, CachePushHasItsOwnKindCounters) {
  EXPECT_STREQ(net::MessageKindName(MessageKind::kCachePush), "cache_push");
  EXPECT_EQ(net::kNumMessageKinds, 16);
  Simulator sim(1);
  Fabric fabric(&sim, UniformModel(Millis(1)));
  const Endpoint va = fabric.AddEndpoint("va", Region::kVA);
  const Endpoint de = fabric.AddEndpoint("de", Region::kDE);
  va.Send(de, MessageKind::kCachePush, 40, [] {});
  sim.Run();
  EXPECT_EQ(fabric.messages_of(MessageKind::kCachePush), 1u);
  EXPECT_EQ(fabric.metrics().Get("kind.cache_push.sent"), 1u);
  EXPECT_EQ(fabric.metrics().Get("kind.cache_push.bytes"), 40u);
}

TEST(FabricTest, LinkDropProbabilityOverridesGlobal) {
  Simulator sim(9);
  Fabric fabric(&sim, UniformModel(Millis(1)));
  const Endpoint a = fabric.AddEndpoint("a", Region::kVA);
  const Endpoint b = fabric.AddEndpoint("b", Region::kVA);
  const Endpoint c = fabric.AddEndpoint("c", Region::kVA);
  fabric.SetLinkDropProbability(a.id(), b.id(), 1.0);
  int ab = 0;
  int ac = 0;
  for (int i = 0; i < 20; ++i) {
    a.Send(b, MessageKind::kGeneric, 128, [&] { ++ab; });
    a.Send(c, MessageKind::kGeneric, 128, [&] { ++ac; });
  }
  sim.Run();
  EXPECT_EQ(ab, 0);   // Overridden link drops everything.
  EXPECT_EQ(ac, 20);  // Global probability is still zero.
  fabric.SetLinkDropProbability(a.id(), b.id(), -1.0);
  a.Send(b, MessageKind::kGeneric, 128, [&] { ++ab; });
  sim.Run();
  EXPECT_EQ(ab, 1);
}

// Same seed => identical per-link counters and delivery times, message for
// message, even with jitter, bandwidth queueing, and probabilistic drops all
// active at once.
TEST(FabricTest, SameSeedProducesIdenticalPerLinkCounters) {
  auto fingerprint = [](uint64_t seed) {
    Simulator sim(seed);
    Fabric fabric(&sim, UniformModel(Millis(5), /*jitter=*/0.1, /*bandwidth=*/500'000));
    fabric.set_drop_probability(0.2);
    std::vector<Endpoint> eps;
    for (int i = 0; i < 4; ++i) {
      eps.push_back(fabric.AddEndpoint("ep" + std::to_string(i),
                                       i < 2 ? Region::kVA : Region::kJP));
    }
    std::ostringstream out;
    for (int round = 0; round < 50; ++round) {
      for (size_t i = 0; i < eps.size(); ++i) {
        for (size_t j = 0; j < eps.size(); ++j) {
          if (i == j) {
            continue;
          }
          eps[i].Send(eps[j], MessageKind::kGeneric, 100 + round,
                      [&out, &sim] { out << sim.Now() << ","; });
        }
      }
    }
    sim.Run();
    fabric.ForEachChannel([&out](const net::Channel& ch) {
      out << "|" << ch.from() << ">" << ch.to() << ":" << ch.stats().messages_sent << "/"
          << ch.stats().messages_dropped << "/" << ch.stats().bytes_sent << "/"
          << ch.stats().queue_delay.PercentileMs(99);
    });
    out << "|wan=" << fabric.wan_bytes_sent() << "|dropped=" << fabric.messages_dropped();
    return out.str();
  };
  EXPECT_EQ(fingerprint(7), fingerprint(7));
  EXPECT_NE(fingerprint(7), fingerprint(8));
}

TEST(FabricTest, ExtraHopDelayAddsToPropagation) {
  Simulator sim(1);
  Fabric fabric(&sim, [](const EndpointInfo& from, const EndpointInfo& to) {
    LinkModel model;
    model.propagation_delay = Millis(10) + from.extra_hop_delay + to.extra_hop_delay;
    return model;
  });
  const Endpoint client = fabric.AddEndpoint("client", Region::kCA);
  const Endpoint server = fabric.AddEndpoint("server", Region::kVA, Millis(2));
  SimTime delivered = 0;
  client.Send(server, MessageKind::kGeneric, 128, [&] { delivered = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered, Millis(12));
}

}  // namespace
}  // namespace radical
