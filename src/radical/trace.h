// Request tracing: per-request timelines through the Radical runtime.
//
// §5.5 decomposes a request's total latency into five components: (1)
// function instantiation, (2) loading the WASM blob, (3) executing the
// extracted f^rw, (4) max(function execution, LVI round trip), and (5) the
// near-storage execution on validation failure. The runtime stamps each
// phase boundary into a RequestTrace; the TraceCollector aggregates them so
// benches (bench/latency_breakdown) and tests can attribute where time goes
// — the same analysis Figure 6's discussion performs.
//
// Each network attempt (every LVI try and direct try, including retries) is
// additionally recorded as a RequestAttempt, and AppendSpans() turns a
// completed trace into client-track spans for the Chrome trace-event export
// (src/obs/span.h).

#ifndef RADICAL_SRC_RADICAL_TRACE_H_
#define RADICAL_SRC_RADICAL_TRACE_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/obs/span.h"
#include "src/sim/region.h"

namespace radical {

// Which protocol leg a network attempt belongs to.
enum class AttemptPath { kLvi, kDirect };

// Cap on RequestAttempt records stored per trace. A request stuck behind a
// long partition retries its direct path indefinitely; without a cap its
// trace grew one record per retry for the life of the outage. When the cap
// is hit the oldest *resolved* record is evicted (open attempts are never
// evicted — ResolveAttempt still needs them) and the trace's attempts_total
// / attempts_dropped counters keep the full tally.
inline constexpr size_t kMaxStoredAttempts = 32;

const char* AttemptPathName(AttemptPath path);

// One transmission on the wire: the original send or any retry, on any path.
struct RequestAttempt {
  AttemptPath path = AttemptPath::kLvi;
  int number = 1;         // 1-based attempt number within its path.
  SimTime sent = 0;       // When the attempt left the runtime.
  SimTime resolved = 0;   // When it came back (response/timeout); 0 =
                          // superseded without an own resolution event.
  std::string outcome;    // "response", "timeout", "fast_fail", "rejected",
                          // "shed" (empty while open).
};

struct RequestTrace {
  ExecutionId exec_id = 0;
  std::string function;
  Region region = Region::kVA;

  // Phase boundaries (virtual time). Zero means "did not happen". Phases are
  // first-wins: a retry must never move a boundary that is already stamped
  // (stamp through StampOnce), so the timeline stays monotonic — retries get
  // their own RequestAttempt entries instead.
  SimTime invoked = 0;        // Client called Invoke.
  SimTime frw_started = 0;    // Instantiation + blob load done; f^rw begins.
  SimTime lvi_sent = 0;       // f^rw done; LVI request leaves (speculation
                              // starts at the same instant when it runs).
  SimTime spec_finished = 0;  // Speculative execution completed.
  SimTime preview_delivered = 0;  // Outcome{kPreview} fired (preview modes
                                  // only; == spec_finished when stamped).
  SimTime response_received = 0;  // LVI response (or direct response) back.
  SimTime replied = 0;        // Client answered (the final outcome).

  // Stamps `now` into `*slot` only if the slot is still zero; retries reuse
  // this so the first occurrence of a phase wins.
  static void StampOnce(SimTime* slot, SimTime now) {
    if (*slot == 0) {
      *slot = now;
    }
  }

  // Outcome flags.
  bool speculated = false;
  bool validated = false;
  bool direct = false;  // Unanalyzable/f^rw-failure fallback path.
  // Answered by rerunning f at the PoP on the primary's snapshot (a failed
  // read-only validation): the compute runs from the response to the reply.
  bool rerun = false;
  // Retry machinery (RetryPolicy): attempts beyond the first, across the
  // LVI and direct paths, plus whether the request exhausted its LVI budget
  // and degraded to InvokeDirect.
  int retries = 0;
  bool fallback_direct = false;

  // Every transmission, in send order (first LVI try, its retries, a direct
  // fallback, ...), capped at kMaxStoredAttempts records; attempts_total
  // always counts every transmission and attempts_dropped the records the
  // cap evicted, so attempts.size() + attempts_dropped == attempts_total.
  std::vector<RequestAttempt> attempts;
  uint64_t attempts_total = 0;
  uint64_t attempts_dropped = 0;

  // True when every nonzero phase boundary is in timeline order. Traces
  // recorded by the runtime must satisfy this even across retries (the
  // regression tests assert it).
  bool PhasesMonotonic() const {
    SimTime last = 0;
    for (const SimTime t : {invoked, frw_started, lvi_sent}) {
      if (t == 0) {
        continue;
      }
      if (t < last) {
        return false;
      }
      last = t;
    }
    // Speculation and the response overlap — each only has to be after the
    // send, not ordered against the other.
    if (spec_finished != 0 && spec_finished < last) {
      return false;
    }
    if (response_received != 0 && response_received < last) {
      return false;
    }
    const SimTime end = std::max({last, spec_finished, response_received});
    return replied == 0 || replied >= end;
  }

  // --- §5.5 component durations ------------------------------------------
  // Each component runs from the previous phase boundary to the next, with
  // unstamped boundaries collapsing onto the previous anchor (a direct-path
  // request has no lvi_sent, for example). This keeps every component
  // non-negative on every path and makes them sum exactly to Total().

  // Start of f^rw; == invoked when f^rw never started (pure direct path).
  SimTime FrwStartAnchor() const { return frw_started != 0 ? frw_started : invoked; }
  // When the request left the runtime; == the f^rw anchor on direct paths
  // (the direct send shows up in `attempts`, not as a phase).
  SimTime DepartAnchor() const { return lvi_sent != 0 ? lvi_sent : FrwStartAnchor(); }
  // When both the execution and the response were in.
  SimTime ResponseAnchor() const {
    const SimTime end = std::max(spec_finished, response_received);
    return end != 0 ? end : DepartAnchor();
  }

  // (1)+(2) Instantiation and blob load.
  SimDuration Instantiation() const { return FrwStartAnchor() - invoked; }
  // (3) f^rw execution (plus version gathering); 0 on direct paths.
  SimDuration FrwTime() const { return DepartAnchor() - FrwStartAnchor(); }
  // (4) The overlap window: from LVI send until both the execution and the
  // response are in.
  SimDuration OverlapWindow() const { return ResponseAnchor() - DepartAnchor(); }
  // Time spent waiting on the LVI response *after* the speculative execution
  // finished (nonzero when the round trip, not execution, is the
  // bottleneck — the social-media-in-JP effect, §5.4).
  SimDuration LviStall() const {
    if (!speculated || response_received == 0 || spec_finished == 0) {
      return 0;
    }
    return std::max<SimDuration>(0, response_received - spec_finished);
  }
  // (5) Everything after the response (local completion, cache installs; on
  // a writer's failure path this is just the reply since the backup already
  // ran; on a read-only one it is the rerun on the snapshot).
  SimDuration Completion() const { return replied - ResponseAnchor(); }
  SimDuration Total() const { return replied - invoked; }
};

// Appends one client-track span per phase of a completed trace — the §5.5
// components end to end, plus one span per RequestAttempt — to `spans`
// (lane = exec_id). No-op when `spans` is null.
void AppendSpans(const RequestTrace& trace, obs::SpanCollector* spans);

// Collects completed traces; aggregation helpers slice per function.
class TraceCollector {
 public:
  void Record(RequestTrace trace) { traces_.push_back(std::move(trace)); }

  const std::vector<RequestTrace>& traces() const { return traces_; }
  size_t size() const { return traces_.size(); }
  void Clear() { traces_.clear(); }

  std::vector<const RequestTrace*> ForFunction(const std::string& function) const;

  // Mean duration of a component over a function's traces (ms).
  double MeanMs(const std::string& function,
                SimDuration (RequestTrace::*component)() const) const;

  // Fraction of a function's requests where the LVI response was the
  // bottleneck (LviStall > 0 among speculated+validated requests).
  double LviBoundFraction(const std::string& function) const;

 private:
  std::vector<RequestTrace> traces_;
};

}  // namespace radical

#endif  // RADICAL_SRC_RADICAL_TRACE_H_
