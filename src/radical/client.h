// radical::Client — the single public entry point for submitting application
// requests to a Radical deployment:
//
//   client.Submit({"reg_write", {Value("k"), Value("v")}}, options, done);
//
// where RequestOptions carries every per-request knob — retry-policy
// override, consistency mode (full LVI protocol vs. near-storage direct
// execution), trace opt-in/out, and a deadline.

#ifndef RADICAL_SRC_RADICAL_CLIENT_H_
#define RADICAL_SRC_RADICAL_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/common/value.h"
#include "src/radical/config.h"

namespace radical {

class Runtime;

// How a submitted request is allowed to execute — the consistency spectrum.
enum class ConsistencyMode {
  // The default: the full LVI protocol — near-user speculation with
  // near-storage lock/validate/intent — falling back to direct execution
  // only when the LVI attempts run out. Linearizable. One callback:
  // the final outcome.
  kLinearizable,
  // Correctables-style incremental results: same execution as
  // kLinearizable, but the callback may fire *twice* — once with
  // Outcome{kPreview} the moment the speculative edge execution produces a
  // tentative result, then once with the final outcome (kOk when validation
  // confirmed the preview, kAborted when it didn't and the final result
  // differs). Finals alone are still linearizable; the preview is exactly as
  // trustworthy as the near-user cache it ran against.
  kPreviewThenFinal,
  // kPreviewThenFinal plus session guarantees: requests submitted through
  // the same radical::Session see read-your-writes and monotonic reads even
  // across previews. A cache read below the session's high-water version
  // upgrades to a validated (non-speculative) read instead of previewing
  // stale state. radical::Session::Submit selects this automatically.
  kSession,
  // Skip the near-user protocol entirely and execute at the near-storage
  // location. Still linearizable (the primary serializes it), but pays the
  // full WAN round trip — the explicit escape hatch for requests known to be
  // cache-hostile, matching what the server forces for unanalyzable
  // functions (§3.3).
  kDirect,
};

// One application request: a registered function and its inputs.
struct Request {
  std::string function;
  std::vector<Value> inputs;
};

// How a submitted request ended, as seen by the client. (Named RequestStatus
// because radical::Status is the generic error-status type in
// src/common/result.h.)
enum class RequestStatus {
  // The request executed and `result` is its value.
  kOk = 0,
  // Backpressure: the server refused or shed the request (bounded admission
  // queue, deadline-aware shedding) and the client's attempt budget did not
  // allow riding it out. The request did NOT execute; `retry_after` carries
  // the server's drain hint when one was given. Retrying immediately is
  // exactly the amplification backpressure exists to prevent — honor the
  // hint.
  kRejected = 1,
  // The request's deadline passed before a usable response arrived. The
  // request may or may not have executed server-side; the client stopped
  // waiting (and stopped retrying) because the answer is no longer useful.
  kDeadlineExceeded = 2,
  // kPreviewThenFinal / kSession only: a *tentative* result from the
  // speculative edge execution, delivered before validation resolves. Never
  // the last callback — a final (kOk/kAborted/kRejected/kDeadlineExceeded)
  // always follows for the same request.
  kPreview = 3,
  // kPreviewThenFinal / kSession only: the final outcome when a preview was
  // delivered but LVI validation failed, so the authoritative result (in
  // `result`) came from the backup execution and may differ from the
  // preview. The request DID execute — kAborted aborts the *speculation*,
  // not the request.
  kAborted = 4,
};

const char* RequestStatusName(RequestStatus status);

// Full completion record delivered to OutcomeFn — the one callback payload.
struct Outcome {
  RequestStatus status = RequestStatus::kOk;
  // Meaningful when executed(): the tentative result for kPreview, the
  // authoritative one for kOk/kAborted.
  Value result;
  // kRejected only: the server's suggested wait before new load (0 = none).
  SimDuration retry_after = 0;

  // Final, validated success. (kAborted finals are also authoritative; test
  // executed() when "did it run" is the question.)
  bool ok() const { return status == RequestStatus::kOk; }
  // Tentative result — a final callback is still coming.
  bool preview() const { return status == RequestStatus::kPreview; }
  // The request executed and `result` holds a value (tentative for kPreview,
  // authoritative for kOk/kAborted).
  bool executed() const {
    return status == RequestStatus::kOk || status == RequestStatus::kPreview ||
           status == RequestStatus::kAborted;
  }
};

// Shared per-session state threaded (by radical::Session) through every
// request it submits. Lives behind a shared_ptr because callbacks referencing
// it can outlive both the Session handle and a crashed Runtime.
struct SessionCtx {
  // Deployment-scoped id; travels on the wire (LviRequest/DirectRequest).
  uint64_t id = 0;
  // High-water version vector: the highest version this session has observed
  // (read or written) per key. Admission compares the near-user cache
  // against it; below-floor reads upgrade to validated reads.
  std::map<Key, Version> floor;
  // Set by radical::Session: called (synchronously, inside Submit's
  // instantiate event) when the runtime assigns the request's ExecutionId,
  // keyed by the session's own sequence number. Failover replay needs the id
  // to re-resolve in-flight requests exactly once.
  std::function<void(uint64_t session_seq, ExecutionId exec_id)> on_exec_assigned;
  // Counters surfaced through Session::stats().
  uint64_t stale_upgrades = 0;  // Cache reads forced validated by the floor.
  uint64_t previews = 0;        // Preview callbacks delivered.
};

// Per-request knobs. The zero-argument default reproduces the deployment's
// configured behaviour exactly.
struct RequestOptions {
  // Overrides the deployment's RetryPolicy for this request only (e.g. a
  // latency-critical request with a tighter timeout, or retries disabled
  // for an idempotency-sensitive probe). Unset = use RadicalConfig::retry.
  std::optional<RetryPolicy> retry;
  ConsistencyMode consistency = ConsistencyMode::kLinearizable;
  // Record a RequestTrace and client-track spans for this request (when a
  // collector is attached). On by default; high-volume callers opt out
  // per request instead of detaching the collector globally.
  bool trace = true;
  // Relative deadline from Submit; 0 = none (the historical behaviour). The
  // deadline travels with the request: the fabric discards messages that
  // would land after it, the server sheds work it cannot finish in time
  // (answering kShed instead of queueing), and the client stops
  // waiting/retrying past it. A deadlined request can therefore complete
  // with RequestStatus::kDeadlineExceeded.
  SimDuration deadline = 0;
  // --- Set by radical::Session, not by applications. -----------------------
  // Session this request rides on (floor checks, wire tagging, preview
  // accounting). Null = sessionless.
  std::shared_ptr<SessionCtx> session;
  // The session's own sequence number for this request (on_exec_assigned key).
  uint64_t session_seq = 0;
  // Failover replay only: reuse this ExecutionId instead of allocating one,
  // so the server's idempotency machinery resolves the original execution
  // exactly once. 0 = allocate normally.
  ExecutionId replay_exec_id = 0;
};

// Thin facade over a Runtime. Copyable and cheap; the Runtime must outlive
// every Client referring to it.
class Client {
 public:
  using OutcomeFn = std::function<void(Outcome outcome)>;

  explicit Client(Runtime* runtime) : runtime_(runtime) {}

  // Submits `request`; `done` fires (as a simulator event) when the result
  // is released to the client — and additionally, under
  // kPreviewThenFinal/kSession, once earlier with Outcome{kPreview}.
  void Submit(Request request, OutcomeFn done);
  void Submit(Request request, RequestOptions options, OutcomeFn done);

  Runtime* runtime() const { return runtime_; }

 private:
  Runtime* runtime_ = nullptr;
};

}  // namespace radical

#endif  // RADICAL_SRC_RADICAL_CLIENT_H_
