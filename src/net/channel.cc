#include "src/net/channel.h"

#include <algorithm>

namespace radical {
namespace net {

Channel::Channel(Simulator* sim, EndpointId from, EndpointId to, LinkModel model, Rng rng,
                 bool wan)
    : sim_(sim), from_(from), to_(to), model_(model), rng_(std::move(rng)), wan_(wan) {}

SimDuration Channel::JitteredPropagation() {
  if (model_.jitter_stddev_frac <= 0.0 || model_.propagation_delay == 0) {
    return model_.propagation_delay;
  }
  double factor = rng_.NextGaussian(1.0, model_.jitter_stddev_frac);
  factor = std::max(model_.min_delay_frac, factor);
  return static_cast<SimDuration>(static_cast<double>(model_.propagation_delay) * factor);
}

SimTime Channel::ComputeDeliveryTime(const Envelope& env, SimDuration spike_extra) {
  const SimTime now = sim_->Now();
  SimDuration queue_wait = 0;
  SimDuration serialization = 0;
  if (model_.bandwidth_bytes_per_sec > 0 && env.size_bytes > 0) {
    const uint64_t bw = model_.bandwidth_bytes_per_sec;
    serialization = static_cast<SimDuration>(
        (static_cast<uint64_t>(env.size_bytes) * 1'000'000ULL + bw - 1) / bw);
    const SimTime start_tx = std::max(now, busy_until_);
    queue_wait = start_tx - now;
    busy_until_ = start_tx + serialization;
    // Sampled only on bandwidth-capped links: an infinite-bandwidth channel
    // never queues, and appending a zero per message would be the only heap
    // traffic on the delivery hot path (tests/alloc_test.cc pins it at
    // none). An empty sampler reads as 0 everywhere, same as all-zeros.
    stats_.queue_delay.Add(queue_wait);
  }

  SimTime deliver_at = now + queue_wait + serialization + JitteredPropagation() + spike_extra;
  // Channels are FIFO: a later message never overtakes an earlier one, even
  // when the jitter draw would have let it.
  deliver_at = std::max(deliver_at, last_delivery_at_);
  last_delivery_at_ = deliver_at;
  return deliver_at;
}

void Channel::RecordOffered(const Envelope& env) {
  stats_.messages_sent++;
  stats_.bytes_sent += env.size_bytes;
  stats_.messages_by_kind[static_cast<int>(env.kind)]++;
  stats_.bytes_by_kind[static_cast<int>(env.kind)] += env.size_bytes;
}

void Channel::RecordDropped(MessageKind kind) {
  stats_.messages_dropped++;
  stats_.drops_by_kind[static_cast<int>(kind)]++;
}

void Channel::RecordExpired(MessageKind kind) {
  (void)kind;
  stats_.messages_expired++;
}

}  // namespace net
}  // namespace radical
