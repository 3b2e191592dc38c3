// Discrete-event simulator.
//
// The whole Radical deployment — runtimes, caches, LVI server, Raft nodes,
// clients — executes on one Simulator in virtual time. The simulator is
// single-threaded and fully deterministic for a given seed: concurrency
// (overlapping executions, lock contention, message races) is expressed as
// interleaved events, never as OS threads.

#ifndef RADICAL_SRC_SIM_SIMULATOR_H_
#define RADICAL_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>

#include "src/common/inline_task.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/sim/event_queue.h"

namespace radical {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` after now. Negative delays clamp to zero
  // (fires this instant, after currently queued same-time events). The
  // closure is constructed in place inside a slab-recycled event node:
  // captures are stored inline (no heap), and a closure that outgrows
  // kInlineTaskCapacity is a compile-time error.
  template <typename F>
  EventId Schedule(SimDuration delay, F&& fn) {
    return queue_.Push(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  // Schedules `fn` at absolute virtual time `when` (clamped to now).
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    return queue_.Push(when < now_ ? now_ : when, std::forward<F>(fn));
  }

  // Cancels a pending event. Returns false if it already fired.
  bool Cancel(EventId id);

  // Runs events until the queue empties. Returns the number of events fired.
  // Caveat: components with self-perpetuating timers (Raft heartbeats) never
  // drain the queue — drive those systems with RunFor/RunUntil or a
  // condition loop over Step() instead.
  size_t Run();

  // Runs events with timestamp <= deadline; leaves later events queued and
  // advances the clock to `deadline`. Returns the number of events fired.
  size_t RunUntil(SimTime deadline);

  // Runs for `duration` of virtual time from now.
  size_t RunFor(SimDuration duration) { return RunUntil(now_ + duration); }

  // Runs a single event if any is ready. Returns false if the queue is empty.
  // In-header so the event loop (Run/RunUntil and the benchmarks) inlines
  // straight into the queue's dispatch fast path.
  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    ++events_fired_;
    // RunTop advances now_ to the event's timestamp before invoking it in
    // place — no callback move, no allocation.
    queue_.RunTop(&now_);
    return true;
  }

  bool idle() const { return queue_.empty(); }
  size_t pending_events() const { return queue_.size(); }
  uint64_t events_fired() const { return events_fired_; }

  // The simulation's root RNG; components should Fork() their own streams so
  // adding a component does not perturb others' draws.
  Rng& rng() { return rng_; }

  // Monotonic id source for executions, requests, etc.
  uint64_t NextId() { return next_id_++; }

  // Central metrics registry for everything running on this simulator.
  // Components resolve their instruments here (see src/obs/metrics.h); one
  // registry per simulation keeps naming and export in one place.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_fired_ = 0;
  uint64_t next_id_ = 1;
  Rng rng_;
  obs::MetricsRegistry metrics_;
};

}  // namespace radical

#endif  // RADICAL_SRC_SIM_SIMULATOR_H_
