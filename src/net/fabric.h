// Fabric: the one message substrate every component sends through.
//
// A Fabric owns a set of addressable Endpoints and the directed Channels
// between them. Components register an endpoint (a Runtime in CA, the LVI
// server next to the primary store, a Raft node in an AZ mesh) and send typed
// Envelopes to other endpoints; the fabric routes each send through the
// per-pair channel, whose LinkModel (propagation delay, jitter, bandwidth) is
// produced by a deployment-supplied function of the two endpoints' infos.
//
// All fault injection lives here — region partitions, endpoint partitions and
// isolation, a send-context filter, declarative per-kind drop rules, drop
// probability, and delay spikes — as does all observability: aggregate and
// per-kind message/byte/drop counters, WAN byte accounting, and per-channel
// queueing-delay samplers. `Network` (WAN) and `LocalMesh` (Raft AZ mesh) are
// thin configurations of this class.
//
// Determinism: the fabric forks exactly one child stream from the
// simulator's root rng at construction (matching what the old Network and
// LocalMesh each did), and every internal stream — per-channel jitter, fault
// coin flips — forks from that child. Constructing a fabric therefore
// advances the root rng exactly as far as the component it replaced, so
// workload draws elsewhere in the simulation are unperturbed.

#ifndef RADICAL_SRC_NET_FABRIC_H_
#define RADICAL_SRC_NET_FABRIC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/net/channel.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/sim/region.h"
#include "src/sim/simulator.h"

namespace radical {
namespace net {

class Fabric;

// What the fabric knows about a registered endpoint. The link-model function
// sees both sides' infos when a channel is first used.
struct EndpointInfo {
  std::string name;
  Region region = Region::kVA;
  // Extra one-way delay charged on every message to or from this endpoint,
  // on top of the pair's modeled propagation delay. The LVI server uses this
  // for its intra-datacenter hop (kServerHopRtt / 2).
  SimDuration extra_hop_delay = 0;
};

// Lightweight handle for sending; copyable, default-constructed handles are
// invalid until assigned from Fabric::AddEndpoint.
class Endpoint {
 public:
  Endpoint() = default;

  // Sends a typed message to `to`; returns the scheduled delivery event id,
  // or kInvalidEventId if the fabric dropped the message. `deliver` is an
  // InlineTask: its captures ride inline through the envelope and the event
  // queue, so a send never touches the heap.
  EventId Send(const Endpoint& to, MessageKind kind, size_t size_bytes,
               InlineTask deliver) const;

  // Deadline-carrying send: the fabric discards the message (counted under
  // "messages_expired") when its computed delivery instant would land past
  // `deadline` (absolute; 0 = none) — the bytes still occupy the link, the
  // receiver just never runs the closure.
  EventId Send(const Endpoint& to, MessageKind kind, size_t size_bytes, InlineTask deliver,
               SimTime deadline) const;

  // True when a send to `to` would be dropped by a deterministic fault
  // (region/endpoint partition or isolation). A sender may use this to fail
  // fast instead of waiting out a full timeout; probabilistic loss and
  // filters stay invisible, as on a real network.
  bool CanReach(const Endpoint& to) const;

  bool valid() const { return fabric_ != nullptr; }
  EndpointId id() const { return id_; }
  Region region() const;
  const std::string& name() const;
  Fabric* fabric() const { return fabric_; }

 private:
  friend class Fabric;
  Endpoint(Fabric* fabric, EndpointId id) : fabric_(fabric), id_(id) {}

  Fabric* fabric_ = nullptr;
  EndpointId id_ = kInvalidEndpointId;
};

// Everything a filter or drop rule can match on.
struct SendContext {
  EndpointId from = kInvalidEndpointId;
  EndpointId to = kInvalidEndpointId;
  Region from_region = Region::kVA;
  Region to_region = Region::kVA;
  MessageKind kind = MessageKind::kGeneric;
  size_t size_bytes = 0;
};

// Declarative drop rule: matches on message kind and/or endpoints, drops with
// `probability`, optionally only the first `max_drops` matches.
struct DropRule {
  // Matched kind; ignored when any_kind is true.
  MessageKind kind = MessageKind::kGeneric;
  bool any_kind = false;
  // kAnyEndpoint matches every sender / receiver.
  EndpointId from = kAnyEndpoint;
  EndpointId to = kAnyEndpoint;
  // Drop chance per matching message (1.0 = always).
  double probability = 1.0;
  // When nonzero, the rule disarms after this many drops.
  uint64_t max_drops = 0;
};

class Fabric {
 public:
  // Produces the link model for a directed channel the first time a message
  // crosses it. Must be deterministic (pure in the two infos).
  using LinkModelFn = std::function<LinkModel(const EndpointInfo& from, const EndpointInfo& to)>;

  // Per-message filter; return false to drop. Prefer drop rules for new
  // code; the filter exists for arbitrary predicates.
  using Filter = std::function<bool(const SendContext&)>;

  // `instance` names this fabric's slice of the simulator's metrics
  // registry: counters live under "fabric.<instance>." (made unique with a
  // #N suffix if two fabrics pick the same instance name).
  Fabric(Simulator* sim, LinkModelFn model_fn, std::string instance = "fabric");

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- Topology ---------------------------------------------------------

  Endpoint AddEndpoint(std::string name, Region region, SimDuration extra_hop_delay = 0);

  const EndpointInfo& info(EndpointId id) const { return endpoints_[id]; }
  int endpoint_count() const { return static_cast<int>(endpoints_.size()); }
  Simulator* simulator() { return sim_; }

  // --- Sending ----------------------------------------------------------

  // Routes one envelope from -> to. Offered traffic is counted before fault
  // checks; a dropped message still shows up in sent/byte counters (and in
  // the drop counters). Returns kInvalidEventId on drop and on deadline
  // expiry (the message would arrive after its deadline).
  EventId Send(EndpointId from, EndpointId to, Envelope env);

  // --- Fault injection --------------------------------------------------

  // Cuts (or heals) every link between two regions, both directions.
  void SetRegionPartitioned(Region a, Region b, bool partitioned);
  bool IsRegionPartitioned(Region a, Region b) const;

  // Cuts (or heals) the links between two specific endpoints.
  void SetEndpointPartitioned(EndpointId a, EndpointId b, bool partitioned);
  bool IsEndpointPartitioned(EndpointId a, EndpointId b) const {
    return endpoint_partitioned_.count(SymKey(a, b)) > 0;
  }

  // Cuts (or heals) every link to and from one endpoint.
  void Isolate(EndpointId id, bool isolated);
  bool IsIsolated(EndpointId id) const { return isolated_.count(id) > 0; }

  // Delivery-failure signal: true when the deterministic fault state
  // (partitions, isolation) would drop every message from -> to right now.
  // Exposed so senders can fail fast on partitions rather than burn a
  // timeout per attempt; random loss is deliberately not reported.
  bool Unreachable(EndpointId from, EndpointId to) const;

  void SetFilter(Filter filter) { filter_ = std::move(filter); }

  // Installs a drop rule; returns an id for RemoveDropRule.
  int AddDropRule(DropRule rule);
  void RemoveDropRule(int rule_id);
  void ClearDropRules();
  // Total messages a specific rule has dropped so far (0 if unknown id).
  uint64_t RuleDrops(int rule_id) const;

  // Uniform drop probability applied to every message (after rules).
  void set_drop_probability(double p) { drop_probability_ = p; }
  // Per-directed-link override; NaN-free: pass -1 to clear back to global.
  void SetLinkDropProbability(EndpointId from, EndpointId to, double p);

  // Adds `extra` one-way delay to every message between a and b (both
  // directions) sent within the next `duration` of virtual time.
  void InjectDelaySpike(EndpointId a, EndpointId b, SimDuration extra, SimDuration duration);

  // --- Link model tweaks ------------------------------------------------

  // Mutable model of the directed channel from -> to (created on demand).
  // Changes affect subsequent sends on that channel only.
  LinkModel& LinkModelFor(EndpointId from, EndpointId to);

  // --- Observability ----------------------------------------------------

  // All counters live in the simulator's MetricsRegistry under
  // "fabric.<instance>." — the accessors below read the registry-backed
  // instruments (resolved once at construction, so the hot path is still a
  // plain integer bump). `metrics()` is this fabric's registry slice.
  obs::MetricsScope metrics() const { return obs::MetricsScope(&sim_->metrics(), prefix_); }
  const std::string& metrics_prefix() const { return prefix_; }

  uint64_t messages_sent() const { return messages_sent_->value(); }
  uint64_t messages_dropped() const { return messages_dropped_->value(); }
  uint64_t bytes_sent() const { return bytes_sent_->value(); }
  // Bytes offered on inter-region links; the §5.7 cost model charges these.
  uint64_t wan_bytes_sent() const { return wan_bytes_sent_->value(); }

  // Per-kind instruments are created on first use, so a fabric's metrics
  // snapshot only lists kinds that actually crossed it.
  uint64_t messages_of(MessageKind kind) const {
    const KindCounters& k = kind_counters_[static_cast<int>(kind)];
    return k.sent == nullptr ? 0 : k.sent->value();
  }
  uint64_t bytes_of(MessageKind kind) const {
    const KindCounters& k = kind_counters_[static_cast<int>(kind)];
    return k.bytes == nullptr ? 0 : k.bytes->value();
  }
  uint64_t drops_of(MessageKind kind) const {
    const KindCounters& k = kind_counters_[static_cast<int>(kind)];
    return k.dropped == nullptr ? 0 : k.dropped->value();
  }

  // Stats of the directed channel from -> to; nullptr if no message has ever
  // been offered on it.
  const LinkStats* StatsFor(EndpointId from, EndpointId to) const;

  // Visits every channel that has carried (or dropped) at least one message,
  // in deterministic (from, to) order.
  void ForEachChannel(const std::function<void(const Channel&)>& fn) const;

 private:
  struct KindCounters {
    obs::Counter* sent = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* dropped = nullptr;
  };

  Channel& ChannelFor(EndpointId from, EndpointId to);
  bool ShouldDrop(const SendContext& ctx);
  SimDuration SpikeExtra(EndpointId from, EndpointId to);
  KindCounters& KindFor(MessageKind kind);

  static uint64_t PairKey(EndpointId from, EndpointId to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }
  // Unordered pair key for symmetric state (partitions, spikes).
  static uint64_t SymKey(EndpointId a, EndpointId b) {
    return a < b ? PairKey(a, b) : PairKey(b, a);
  }

  Simulator* sim_;
  LinkModelFn model_fn_;
  Rng rng_;        // Master stream; everything below forks from it.
  Rng fault_rng_;  // Coin flips for drop rules and drop probability.

  std::vector<EndpointInfo> endpoints_;
  std::map<uint64_t, std::unique_ptr<Channel>> channels_;

  std::array<std::array<bool, kNumRegions>, kNumRegions> region_partitioned_{};
  std::set<uint64_t> endpoint_partitioned_;
  std::set<EndpointId> isolated_;
  Filter filter_;
  struct ArmedRule {
    DropRule rule;
    uint64_t drops = 0;
  };
  std::map<int, ArmedRule> drop_rules_;
  int next_rule_id_ = 1;
  double drop_probability_ = 0.0;
  std::map<uint64_t, double> link_drop_probability_;
  // Symmetric pair -> (extra delay, expiry time).
  std::map<uint64_t, std::pair<SimDuration, SimTime>> delay_spikes_;

  std::string prefix_;  // "fabric.<instance>" in the simulator's registry.
  obs::Counter* messages_sent_;
  obs::Counter* messages_dropped_;
  obs::Counter* bytes_sent_;
  obs::Counter* wan_bytes_sent_;
  // Deadline-expired discards; resolved lazily on the first expiry so
  // fabrics that never carry deadlines register no extra instrument.
  obs::Counter* messages_expired_ = nullptr;
  std::array<KindCounters, kNumMessageKinds> kind_counters_{};
};

}  // namespace net
}  // namespace radical

#endif  // RADICAL_SRC_NET_FABRIC_H_
