#include "src/net/fabric.h"

#include <utility>

namespace radical {
namespace net {

EventId Endpoint::Send(const Endpoint& to, MessageKind kind, size_t size_bytes,
                       InlineTask deliver) const {
  return fabric_->Send(id_, to.id_, Envelope{kind, size_bytes, std::move(deliver)});
}

EventId Endpoint::Send(const Endpoint& to, MessageKind kind, size_t size_bytes,
                       InlineTask deliver, SimTime deadline) const {
  return fabric_->Send(id_, to.id_, Envelope{kind, size_bytes, std::move(deliver), deadline});
}

bool Endpoint::CanReach(const Endpoint& to) const {
  return fabric_ != nullptr && to.fabric_ == fabric_ && !fabric_->Unreachable(id_, to.id_);
}

Region Endpoint::region() const { return fabric_->info(id_).region; }

const std::string& Endpoint::name() const { return fabric_->info(id_).name; }

Fabric::Fabric(Simulator* sim, LinkModelFn model_fn, std::string instance)
    : sim_(sim),
      model_fn_(std::move(model_fn)),
      // Exactly one fork from the root stream — same root-rng advance as the
      // component this fabric replaces, so other components' draws hold.
      rng_(sim->rng().Fork()),
      fault_rng_(rng_.Fork()),
      prefix_(sim->metrics().UniqueScopeName("fabric." + std::move(instance))) {
  obs::MetricsRegistry& reg = sim_->metrics();
  messages_sent_ = reg.GetCounter(prefix_ + ".messages_sent");
  messages_dropped_ = reg.GetCounter(prefix_ + ".messages_dropped");
  bytes_sent_ = reg.GetCounter(prefix_ + ".bytes_sent");
  wan_bytes_sent_ = reg.GetCounter(prefix_ + ".wan_bytes_sent");
}

Fabric::KindCounters& Fabric::KindFor(MessageKind kind) {
  KindCounters& k = kind_counters_[static_cast<int>(kind)];
  if (k.sent == nullptr) {
    obs::MetricsRegistry& reg = sim_->metrics();
    const std::string base = prefix_ + ".kind." + MessageKindName(kind);
    k.sent = reg.GetCounter(base + ".sent");
    k.bytes = reg.GetCounter(base + ".bytes");
    k.dropped = reg.GetCounter(base + ".dropped");
  }
  return k;
}

Endpoint Fabric::AddEndpoint(std::string name, Region region, SimDuration extra_hop_delay) {
  EndpointId id = static_cast<EndpointId>(endpoints_.size());
  endpoints_.push_back(EndpointInfo{std::move(name), region, extra_hop_delay});
  return Endpoint(this, id);
}

Channel& Fabric::ChannelFor(EndpointId from, EndpointId to) {
  const uint64_t key = PairKey(from, to);
  auto it = channels_.find(key);
  if (it == channels_.end()) {
    const EndpointInfo& fi = endpoints_[from];
    const EndpointInfo& ti = endpoints_[to];
    LinkModel model = model_fn_(fi, ti);
    it = channels_
             .emplace(key, std::make_unique<Channel>(sim_, from, to, model, rng_.Fork(),
                                                     fi.region != ti.region))
             .first;
  }
  return *it->second;
}

bool Fabric::ShouldDrop(const SendContext& ctx) {
  if (region_partitioned_[static_cast<int>(ctx.from_region)][static_cast<int>(ctx.to_region)]) {
    return true;
  }
  if (isolated_.count(ctx.from) > 0 || isolated_.count(ctx.to) > 0) {
    return true;
  }
  if (endpoint_partitioned_.count(SymKey(ctx.from, ctx.to)) > 0) {
    return true;
  }
  if (filter_ && !filter_(ctx)) {
    return true;
  }
  for (auto& [id, armed] : drop_rules_) {
    (void)id;
    const DropRule& r = armed.rule;
    if (!r.any_kind && r.kind != ctx.kind) continue;
    if (r.from != kAnyEndpoint && r.from != ctx.from) continue;
    if (r.to != kAnyEndpoint && r.to != ctx.to) continue;
    if (r.max_drops > 0 && armed.drops >= r.max_drops) continue;
    if (r.probability >= 1.0 || fault_rng_.NextBool(r.probability)) {
      armed.drops++;
      return true;
    }
  }
  double p = drop_probability_;
  auto link_it = link_drop_probability_.find(PairKey(ctx.from, ctx.to));
  if (link_it != link_drop_probability_.end()) {
    p = link_it->second;
  }
  if (p > 0.0 && fault_rng_.NextBool(p)) {
    return true;
  }
  return false;
}

SimDuration Fabric::SpikeExtra(EndpointId from, EndpointId to) {
  if (delay_spikes_.empty()) return 0;
  auto it = delay_spikes_.find(SymKey(from, to));
  if (it == delay_spikes_.end()) return 0;
  if (sim_->Now() >= it->second.second) {
    delay_spikes_.erase(it);
    return 0;
  }
  return it->second.first;
}

EventId Fabric::Send(EndpointId from, EndpointId to, Envelope env) {
  Channel& ch = ChannelFor(from, to);
  // Offered traffic is charged before fault checks — a dropped message was
  // still sent (and paid for) by the sender.
  ch.RecordOffered(env);
  messages_sent_->Increment();
  bytes_sent_->Increment(env.size_bytes);
  KindCounters& kc = KindFor(env.kind);
  kc.sent->Increment();
  kc.bytes->Increment(env.size_bytes);
  if (ch.wan()) {
    wan_bytes_sent_->Increment(env.size_bytes);
  }

  SendContext ctx{from,
                  to,
                  endpoints_[from].region,
                  endpoints_[to].region,
                  env.kind,
                  env.size_bytes};
  if (ShouldDrop(ctx)) {
    ch.RecordDropped(env.kind);
    messages_dropped_->Increment();
    kc.dropped->Increment();
    return kInvalidEventId;
  }
  const SimTime deliver_at = ch.ComputeDeliveryTime(env, SpikeExtra(from, to));
  if (env.deadline != 0 && deliver_at > env.deadline) {
    // The message would land after the sender's deadline: the bytes occupied
    // the link (queue/FIFO state above already advanced), but the receiver
    // would only discard the payload — model that discard here and save the
    // event. Counted separately from fault drops: an expiry is the overload
    // model working, not the network failing.
    ch.RecordExpired(env.kind);
    if (messages_expired_ == nullptr) {
      messages_expired_ = sim_->metrics().GetCounter(prefix_ + ".messages_expired");
    }
    messages_expired_->Increment();
    return kInvalidEventId;
  }
  return sim_->ScheduleAt(deliver_at, std::move(env.deliver));
}

void Fabric::SetRegionPartitioned(Region a, Region b, bool partitioned) {
  region_partitioned_[static_cast<int>(a)][static_cast<int>(b)] = partitioned;
  region_partitioned_[static_cast<int>(b)][static_cast<int>(a)] = partitioned;
}

bool Fabric::IsRegionPartitioned(Region a, Region b) const {
  return region_partitioned_[static_cast<int>(a)][static_cast<int>(b)];
}

void Fabric::SetEndpointPartitioned(EndpointId a, EndpointId b, bool partitioned) {
  if (partitioned) {
    endpoint_partitioned_.insert(SymKey(a, b));
  } else {
    endpoint_partitioned_.erase(SymKey(a, b));
  }
}

bool Fabric::Unreachable(EndpointId from, EndpointId to) const {
  const Region fr = endpoints_[from].region;
  const Region tr = endpoints_[to].region;
  if (region_partitioned_[static_cast<int>(fr)][static_cast<int>(tr)]) {
    return true;
  }
  if (isolated_.count(from) > 0 || isolated_.count(to) > 0) {
    return true;
  }
  return endpoint_partitioned_.count(SymKey(from, to)) > 0;
}

void Fabric::Isolate(EndpointId id, bool isolated) {
  if (isolated) {
    isolated_.insert(id);
  } else {
    isolated_.erase(id);
  }
}

int Fabric::AddDropRule(DropRule rule) {
  int id = next_rule_id_++;
  drop_rules_.emplace(id, ArmedRule{rule, 0});
  return id;
}

void Fabric::RemoveDropRule(int rule_id) { drop_rules_.erase(rule_id); }

void Fabric::ClearDropRules() { drop_rules_.clear(); }

uint64_t Fabric::RuleDrops(int rule_id) const {
  auto it = drop_rules_.find(rule_id);
  return it == drop_rules_.end() ? 0 : it->second.drops;
}

void Fabric::SetLinkDropProbability(EndpointId from, EndpointId to, double p) {
  if (p < 0.0) {
    link_drop_probability_.erase(PairKey(from, to));
  } else {
    link_drop_probability_[PairKey(from, to)] = p;
  }
}

void Fabric::InjectDelaySpike(EndpointId a, EndpointId b, SimDuration extra,
                              SimDuration duration) {
  delay_spikes_[SymKey(a, b)] = {extra, sim_->Now() + duration};
}

LinkModel& Fabric::LinkModelFor(EndpointId from, EndpointId to) {
  return ChannelFor(from, to).mutable_model();
}

const LinkStats* Fabric::StatsFor(EndpointId from, EndpointId to) const {
  auto it = channels_.find(PairKey(from, to));
  return it == channels_.end() ? nullptr : &it->second->stats();
}

void Fabric::ForEachChannel(const std::function<void(const Channel&)>& fn) const {
  for (const auto& [key, ch] : channels_) {
    (void)key;
    fn(*ch);
  }
}

}  // namespace net
}  // namespace radical
