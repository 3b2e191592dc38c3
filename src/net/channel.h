// Channel: one directed link of the fabric.
//
// A channel models the physical path between two endpoints: propagation
// delay with deterministic jitter, an optional finite bandwidth (messages
// pay a serialization delay proportional to their size and queue FIFO behind
// the link while it is busy), and in-order delivery — a message never
// overtakes an earlier one on the same channel, even when jitter would have
// reordered them. Per-channel counters (messages, bytes, drops, per-kind
// breakdowns, queueing-delay samples) are the raw material for the fabric's
// aggregated metrics and for the per-link percentiles the throughput bench
// reports.

#ifndef RADICAL_SRC_NET_CHANNEL_H_
#define RADICAL_SRC_NET_CHANNEL_H_

#include <array>
#include <cstdint>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/net/message.h"
#include "src/sim/simulator.h"

namespace radical {
namespace net {

using EndpointId = int;
inline constexpr EndpointId kInvalidEndpointId = -1;
// Wildcard in fault-injection rules: matches any endpoint.
inline constexpr EndpointId kAnyEndpoint = -1;

// Delay model of one directed link.
struct LinkModel {
  // Nominal one-way propagation delay.
  SimDuration propagation_delay = 0;
  // Multiplicative gaussian jitter on the propagation delay (fractional
  // standard deviation); zero disables jitter.
  double jitter_stddev_frac = 0.0;
  // A jittered delay never shrinks below this fraction of its nominal value.
  double min_delay_frac = 0.5;
  // Link bandwidth; a message of S bytes occupies the link for
  // S / bandwidth seconds and later messages queue behind it. Zero means
  // infinite bandwidth (no serialization delay, no queueing).
  uint64_t bandwidth_bytes_per_sec = 0;
};

// Per-channel counters. Dropped messages still count toward sent/bytes —
// they represent offered traffic, which is what the §5.7 cost model charges.
struct LinkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_dropped = 0;
  // Deadline-expired discards (the delivery instant fell past the message's
  // deadline); disjoint from messages_dropped, which counts injected faults.
  uint64_t messages_expired = 0;
  uint64_t bytes_sent = 0;
  std::array<uint64_t, kNumMessageKinds> messages_by_kind{};
  std::array<uint64_t, kNumMessageKinds> bytes_by_kind{};
  std::array<uint64_t, kNumMessageKinds> drops_by_kind{};
  // Time each message waited for the link to free up (excludes its own
  // serialization time); sampled only on bandwidth-capped links (empty —
  // reading as zero — on infinite-bandwidth ones, which never queue).
  LatencySampler queue_delay;
};

class Channel {
 public:
  Channel(Simulator* sim, EndpointId from, EndpointId to, LinkModel model, Rng rng, bool wan);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // The instant `env` arrives: now + queueing + serialization + jittered
  // propagation (+ `spike_extra`, the fabric's delay-spike injection),
  // never before the previous delivery on this channel. Advances the link's
  // queue occupancy, jitter stream, FIFO guard and queue-delay stats; the
  // fabric schedules the delivery itself (or discards the message if this
  // instant falls past its deadline). Fault decisions (drops, partitions,
  // filters) happen in the fabric before this is called.
  SimTime ComputeDeliveryTime(const Envelope& env, SimDuration spike_extra);

  // Accounts one offered message (called for every send, dropped or not).
  void RecordOffered(const Envelope& env);
  // Accounts one dropped message.
  void RecordDropped(MessageKind kind);
  // Accounts one deadline-expired discard.
  void RecordExpired(MessageKind kind);

  EndpointId from() const { return from_; }
  EndpointId to() const { return to_; }
  // True when the endpoints sit in different regions (WAN link).
  bool wan() const { return wan_; }
  const LinkModel& model() const { return model_; }
  // The fabric exposes this for per-link reconfiguration (e.g. a bench
  // throttling one link); takes effect for subsequent sends.
  LinkModel& mutable_model() { return model_; }
  const LinkStats& stats() const { return stats_; }

 private:
  SimDuration JitteredPropagation();

  Simulator* sim_;
  const EndpointId from_;
  const EndpointId to_;
  LinkModel model_;
  Rng rng_;
  const bool wan_;
  LinkStats stats_;
  // Serialization queue: the link is transmitting until this instant.
  SimTime busy_until_ = 0;
  // FIFO guard: no delivery may be scheduled before the previous one.
  SimTime last_delivery_at_ = 0;
};

}  // namespace net
}  // namespace radical

#endif  // RADICAL_SRC_NET_CHANNEL_H_
