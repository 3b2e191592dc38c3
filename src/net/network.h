// Wide-area network model: a thin configuration of net::Fabric.
//
// The latency matrix reproduces Table 2 of the paper (round-trip times from
// each deployment location to the primary in Virginia: 7/74/70/93/146 ms)
// plus plausible public-internet latencies for the remaining pairs, which
// only the Figure 1 geo-replication baseline and the Raft cluster exercise.
//
// Network registers one anchor endpoint per Region and derives every link's
// model from the matrix: propagation = one-way RTT between the two regions
// plus each endpoint's extra hop, gaussian jitter from NetworkOptions, and an
// optional WAN bandwidth cap for queueing experiments. Components that need
// their own address (the LVI server with its intra-DC hop, per-region
// runtimes) register additional endpoints via AddEndpoint; everything else
// sends between the per-region anchor endpoints.

#ifndef RADICAL_SRC_NET_NETWORK_H_
#define RADICAL_SRC_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/types.h"
#include "src/net/fabric.h"
#include "src/sim/region.h"
#include "src/sim/simulator.h"

namespace radical {

// Symmetric RTT matrix between regions.
class LatencyMatrix {
 public:
  // All pairs default to kDefaultRtt until set.
  LatencyMatrix();

  // The paper's measured latencies (Table 2) plus inter-replica links.
  static LatencyMatrix PaperDefault();

  // Sets the RTT for a pair (stored symmetrically).
  void SetRtt(Region a, Region b, SimDuration rtt);

  SimDuration Rtt(Region a, Region b) const;
  SimDuration OneWay(Region a, Region b) const { return Rtt(a, b) / 2; }

 private:
  static constexpr SimDuration kDefaultRtt = Millis(100);
  std::array<std::array<SimDuration, kNumRegions>, kNumRegions> rtt_;
};

// The LVI server runs on its own EC2 instance next to the primary store
// (§4); reaching it from the application adds one intra-datacenter hop on
// top of the WAN path. Table 2's lat_nu<->ns values equal
// Rtt(region, primary) + kServerHopRtt.
constexpr SimDuration kServerHopRtt = Millis(5);

// Round-trip latency of an LVI request from `region` to the server in
// `server_region` (== Table 2's lat_nu<->ns for the paper's matrix).
inline SimDuration LviLinkRtt(const LatencyMatrix& m, Region region, Region server_region) {
  return m.Rtt(region, server_region) + kServerHopRtt;
}

// Options for Network message delivery.
struct NetworkOptions {
  // Multiplicative gaussian jitter applied to each one-way delay
  // (fractional standard deviation). Zero disables jitter.
  double jitter_stddev_frac = 0.02;
  // Absolute jitter floor/ceiling guard: a delay never shrinks below this
  // fraction of its nominal value.
  double min_delay_frac = 0.5;
  // Probability that any given message is silently dropped.
  double drop_probability = 0.0;
  // Bandwidth of each WAN (inter-region) link; messages pay a serialization
  // delay and queue FIFO behind the link. Zero = infinite (no queueing), the
  // default, which keeps the paper-figure latency benches bandwidth-free.
  uint64_t wan_bandwidth_bytes_per_sec = 0;
};

// One Network instance is shared by the whole deployment.
class Network {
 public:
  Network(Simulator* sim, LatencyMatrix latency, NetworkOptions options = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // The underlying fabric: fault injection, per-kind metrics, per-channel
  // stats all live there.
  net::Fabric& fabric() { return fabric_; }
  const net::Fabric& fabric() const { return fabric_; }

  // The anchor endpoint of a region. Legacy region-to-region traffic and
  // components without their own address send from/to these.
  const net::Endpoint& endpoint(Region r) const { return anchors_[static_cast<int>(r)]; }

  // Registers an additional addressable endpoint. `extra_hop_delay` is
  // charged one-way on every message to or from it (the LVI server passes
  // kServerHopRtt / 2 for its intra-DC hop).
  net::Endpoint AddEndpoint(std::string name, Region region, SimDuration extra_hop_delay = 0);

  // Cuts (or heals) the link between two regions; messages in flight are
  // unaffected, new sends in either direction are dropped.
  void SetPartitioned(Region a, Region b, bool partitioned) {
    fabric_.SetRegionPartitioned(a, b, partitioned);
  }
  bool IsPartitioned(Region a, Region b) const { return fabric_.IsRegionPartitioned(a, b); }

  void set_drop_probability(double p) { fabric_.set_drop_probability(p); }

  const LatencyMatrix& latency() const { return latency_; }
  Simulator* simulator() { return fabric_.simulator(); }

  uint64_t messages_sent() const { return fabric_.messages_sent(); }
  uint64_t messages_dropped() const { return fabric_.messages_dropped(); }
  uint64_t bytes_sent() const { return fabric_.bytes_sent(); }
  // Bytes sent on WAN links (from != to); the §5.7 cost model charges these.
  uint64_t wan_bytes_sent() const { return fabric_.wan_bytes_sent(); }

 private:
  LatencyMatrix latency_;
  NetworkOptions options_;
  net::Fabric fabric_;
  std::array<net::Endpoint, kNumRegions> anchors_;
};

}  // namespace radical

#endif  // RADICAL_SRC_NET_NETWORK_H_
