// Runtime: Radical's near-user component (§3.1, Figure 2).
//
// For each client request the runtime (1) runs f^rw against the local cache
// to derive the read/write set, then simultaneously (2a) speculatively
// executes f against the cache through a write buffer and (2b) sends the LVI
// request — with the cache's version per item — to the near-storage
// location. The client is answered when both the speculative execution and
// the LVI response have arrived: with the speculative result if validation
// succeeded. If it failed, the response's fresh items repair the cache, and
// the client gets the backup execution's result (a writer) or the result of
// rerunning f on the primary's snapshot the response carries (a read-only
// function; no backup runs). The write followup
// ships the buffered writes as soon as the speculation ends — usually ahead
// of the LVI response, so the server can commit them at validation.
//
// Cache misses put version -1 in the request and skip speculation;
// unanalyzable functions skip the protocol entirely and execute in the
// near-storage location (§3.3).

#ifndef RADICAL_SRC_RADICAL_RUNTIME_H_
#define RADICAL_SRC_RADICAL_RUNTIME_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/registry.h"
#include "src/common/sm.h"
#include "src/common/stats.h"
#include "src/kv/cache_store.h"
#include "src/lvi/codec.h"
#include "src/lvi/lvi_server.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/radical/client.h"
#include "src/radical/config.h"
#include "src/radical/trace.h"

namespace radical {

// Lifecycle of one request at the PoP, as a checked state machine
// (src/common/sm.h). A request joins two branches (§3.2): the speculative run
// of f over the cache and the LVI round trip. The phase says which of them
// the request is still waiting for, so every handler asks one question —
// "is the request in the phase this event belongs to?" — and an event that
// arrives too late drops. A second completion is the illegal edge
// done -> done and aborts.
enum class RequestPhase : uint32_t {
  kStarting = 0,  // Instantiating, loading the blob, running f^rw.
  kLvi,           // LVI attempts in flight; the speculation may be running.
  kAwaitSpec,     // Validated response in; waiting for the speculation to end.
  kDirect,        // Direct attempts in flight (chosen, or LVI attempts ran out).
  kCommitting,    // Outcome fixed: installing writes or repairing the cache.
  kDone,          // The client has its final outcome. Terminal.
};

inline constexpr SmStateSpec kRequestPhaseSpec[] = {
    // starting -> done: the deadline watchdog fired before f^rw finished.
    {"starting", SmMask(RequestPhase::kLvi) | SmMask(RequestPhase::kDirect) |
                     SmMask(RequestPhase::kDone)},
    // lvi -> direct: LVI attempts ran out. lvi -> done: a rejection or a
    // passed deadline.
    {"lvi", SmMask(RequestPhase::kAwaitSpec) | SmMask(RequestPhase::kCommitting) |
                SmMask(RequestPhase::kDirect) | SmMask(RequestPhase::kDone)},
    {"await_spec", SmMask(RequestPhase::kCommitting) | SmMask(RequestPhase::kDone)},
    {"direct", SmMask(RequestPhase::kDone)},
    {"committing", SmMask(RequestPhase::kDone)},
    {"done", 0},
};

class Runtime {
 public:
  using OutcomeFn = std::function<void(Outcome outcome)>;

  // `server` lives in `server_region` (the near-storage location); all
  // pointers must outlive the runtime. `server_endpoint` is the server's
  // fabric address (shared across runtimes by the deployment); when invalid
  // (default), the runtime registers its own, carrying the intra-DC hop
  // (kServerHopRtt / 2) as the endpoint's extra one-way delay.
  Runtime(Simulator* sim, Network* network, Region region, Region server_region,
          LviServer* server, const FunctionRegistry* registry, const Interpreter* interpreter,
          const RadicalConfig& config, ExternalServiceRegistry* externals = nullptr,
          net::Endpoint server_endpoint = net::Endpoint());

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Submits a request on behalf of a colocated client with per-request
  // options (retry override, consistency mode, trace opt-out, deadline,
  // session — see RequestOptions in client.h). `done` fires (as a simulator
  // event) when the result is released to the client, and — under
  // kPreviewThenFinal/kSession — once earlier with Outcome{kPreview}. Prefer
  // the radical::Client facade over calling this directly.
  void Submit(Request request, RequestOptions options, OutcomeFn done);

  Region region() const { return region_; }
  CacheStore& cache() { return cache_; }
  // The runtime's counters live in the simulator's MetricsRegistry under
  // "runtime.<region>."; this is its registry slice (copyable view, returned
  // by value).
  obs::MetricsScope counters() const { return metrics_; }

  // This runtime's fabric address; tests target it with per-kind drop rules
  // (e.g. drop kWriteFollowup from this endpoint).
  const net::Endpoint& endpoint() const { return self_; }
  const net::Endpoint& server_endpoint() const { return server_endpoint_; }

  // The server's channels, one per shard ("lvi-server.shard<i>"); each
  // request is sent on its home shard's channel, chosen by ShardRouter over
  // the first item's key. Channel choice is a locality optimization only:
  // the server recomputes the authoritative shard on arrival, so a stale or
  // wrong route still executes correctly. Default: {server_endpoint()}.
  void set_shard_endpoints(std::vector<net::Endpoint> endpoints);

  // Attaches a trace collector; every completed request records a
  // RequestTrace with its §5.5 phase boundaries. Pass nullptr to detach.
  void set_tracer(TraceCollector* tracer) { tracer_ = tracer; }

  // Attaches a span sink: every completed request appends its client-track
  // spans (§5.5 components plus one span per attempt; see AppendSpans).
  // Pass nullptr to detach. Must outlive the runtime while attached.
  void set_span_collector(obs::SpanCollector* spans) { spans_ = spans; }

  // Receives a cache push from the primary (see CachePush): each pushed item
  // refreshes this cache only if the cache already holds the key at an older
  // version. A crashed runtime drops the push. Per item, the registry counts
  // "cache_push_applied" (the cache changed) or "cache_push_ignored".
  void OnCachePush(const CachePush& push);

  // --- PoP failure (SwiftCloud-style session failover) ---------------------
  // Crash() models the edge runtime's process dying: every in-flight request
  // is orphaned (its pending events fire into a dead epoch and drop), the
  // cache loses its contents, and new Submits complete kRejected until
  // Recover(). Crash listeners — registered by sessions bound here — fire
  // once per Crash(), after the epoch bump, so they can re-bind elsewhere.
  void Crash();
  void Recover();
  bool alive() const { return alive_; }
  void OnCrash(std::function<void()> listener) {
    crash_listeners_.push_back(std::move(listener));
  }

 private:
  // Whether a speculative run of f over the cache was started and finished,
  // or dropped by a snapshot reply that proved it stale (its end is ignored).
  enum class Speculation : uint8_t { kNone, kRunning, kFinished, kDropped };

  struct RequestState {
    ExecutionId exec_id = 0;
    std::string function;
    std::vector<Value> inputs;
    // The single completion representation: every ending — preview, final,
    // rejection — flows through this one callback with its status.
    OutcomeFn done;
    // Consistency spectrum (kPreviewThenFinal / kSession).
    std::shared_ptr<SessionCtx> session;  // Null = sessionless.
    uint64_t session_seq = 0;
    ExecutionId replay_exec_id = 0;  // Failover replay: reuse this exec id.
    bool preview_requested = false;  // Mode asks for an early kPreview.
    bool preview_fired = false;      // ... and it was delivered.
    uint64_t born_epoch = 0;         // Runtime epoch_ at Submit time.
    // Per-request knobs, resolved from RequestOptions at Submit time.
    RetryPolicy retry;           // options.retry or the deployment default.
    bool trace_enabled = true;   // Record trace/spans on completion.
    SimTime deadline = 0;        // Absolute; 0 = none. Travels with every
                                 // request message (fabric + server shed
                                 // against it) and bounds client retries.
    net::Endpoint server_ep;     // The server channel this request uses.
    // Base version per write key (sorted), for post-success installs: the
    // cached one, or the primary's for a blind write the reply repinned.
    std::vector<Key> write_keys;
    std::vector<Version> write_base_versions;
    Sm<RequestPhase> phase{kRequestPhaseSpec, RequestPhase::kStarting};
    // Speculation: writes buffered over the cache, and f's result.
    std::unique_ptr<WriteBuffer> buffer;
    Speculation speculation = Speculation::kNone;
    Value spec_result;
    LviResponse response;  // The LVI response that settled the request.
    RequestTrace trace;
    // --- Attempts (RetryPolicy) ---------------------------------------------
    // Each message is kept with its wire size so a retry retransmits the
    // exact same bytes (same exec_id: the server side is idempotent).
    LviRequest lvi_request;
    size_t lvi_request_size = 0;
    DirectRequest direct_request;
    size_t direct_request_size = 0;
    // The followup is on its way (at most one is sent per request).
    bool followup_sent = false;
    int attempts[2] = {};    // Per AttemptPath.
    EventId timer = kInvalidEventId;           // Current attempt's timeout.
    EventId deadline_event = kInvalidEventId;  // Deadline watchdog (if any).
  };

  // True when `state` belongs to an epoch that died in a Crash(); such
  // requests silently stop (the session layer owns replaying them).
  bool DeadRequest(const RequestState& state) const {
    return !alive_ || state.born_epoch != epoch_;
  }
  // Raises the session's high-water mark to each fresh (key, version).
  static void AdvanceSessionFloor(const std::shared_ptr<RequestState>& state,
                                  const std::vector<FreshItem>& items);
  // Installs each fresh item the cache does not hold at that version or a
  // newer one.
  void RepairCache(const std::vector<FreshItem>& items);
  // Fires Outcome{kPreview} with the speculative result if the request asked
  // for one and the final is still unknown (kLvi or kDirect).
  void MaybeDeliverPreview(const std::shared_ptr<RequestState>& state);
  // Runs the LVI path once f^rw produced a read/write set.
  void StartLvi(std::shared_ptr<RequestState> state, RwSet rw);
  // Fallback: execute in the near-storage location (unanalyzable functions,
  // f^rw failure, or LVI attempts that ran out).
  void InvokeDirect(std::shared_ptr<RequestState> state);

  // --- Attempts, timeouts and retries (RetryPolicy) ------------------------
  // One attempt on `path`: transmit (unless the server is deterministically
  // unreachable — fail fast) and arm the attempt's timeout. The two paths
  // share the schedule; only the LVI path runs out of attempts
  // (ExhaustLviAttempts).
  void SendAttempt(const std::shared_ptr<RequestState>& state, AttemptPath path);
  void OnAttemptTimeout(const std::shared_ptr<RequestState>& state, AttemptPath path);
  // Puts the path's message on the wire and routes the server's answer back
  // to its handler. The legs ride the fabric: the WAN path plus the intra-DC
  // hop to the server's EC2 instance, carried as the server endpoint's
  // extra_hop_delay (Table 2's lat_nu<->ns is the sum of both). Both
  // messages carry the request's deadline, so the fabric drops one that
  // would land past it.
  void Transmit(const std::shared_ptr<RequestState>& state, AttemptPath path);
  // True when an attempt would be past the request's deadline.
  bool DeadlinePassed(const RequestState& state) const;
  // True when `path` has used its attempts: max_lvi_attempts for the LVI
  // path; the direct path is the terminal fallback and never runs out, so
  // every Invoke answers once the server is back.
  bool AttemptsExhausted(const RequestState& state, AttemptPath path) const;
  // The LVI path ran out: keep retrying it if the followup may have
  // committed, else degrade to direct.
  void ExhaustLviAttempts(const std::shared_ptr<RequestState>& state);
  // The shared front half of the LVI and direct response handlers: drops a
  // response the request no longer waits for and turns backpressure into a
  // retry or a rejection. True when the caller owns an ok response.
  bool AcceptResponse(const std::shared_ptr<RequestState>& state, AttemptPath path,
                      ResponseStatus status, SimDuration retry_after);
  void OnLviResponse(const std::shared_ptr<RequestState>& state, LviResponse response);
  void OnDirectResponse(const std::shared_ptr<RequestState>& state, DirectResponse response);
  // --- Overload control ----------------------------------------------------
  // Reaction to an explicit backpressure reply (kOverloaded / kShed) on the
  // LVI or direct path: retry after max(server hint, backoff) while attempts
  // remain, else complete the request with RequestStatus::kRejected. Never
  // degrades to the direct path — that would move the load, not shed it.
  void OnBackpressure(const std::shared_ptr<RequestState>& state, AttemptPath path,
                      SimDuration retry_after);
  // Terminal non-kOk completion: cancels timers, discards any speculation,
  // and answers the client with `status` (no result ever executed).
  void CompleteRejected(const std::shared_ptr<RequestState>& state, RequestStatus status,
                        SimDuration retry_after);
  // Exponential backoff: retry.request_timeout * backoff^(attempt-1),
  // capped at retry.max_backoff.
  static SimDuration AttemptTimeout(const RetryPolicy& retry, int attempt);
  void CancelTimeout(const std::shared_ptr<RequestState>& state);
  // Attempt bookkeeping for the trace: opens one RequestAttempt per
  // transmission; Resolve closes the newest open attempt on `path`.
  void RecordAttempt(const std::shared_ptr<RequestState>& state, AttemptPath path, int number);
  void ResolveAttempt(const std::shared_ptr<RequestState>& state, AttemptPath path,
                      const char* outcome);
  // kCommitting: the validated request commits its speculation (or runs f
  // now, if nothing ran speculatively); the invalidated one repairs the
  // cache and replies with the backup result.
  void CompleteValidated(const std::shared_ptr<RequestState>& state);
  void CompleteFailed(const std::shared_ptr<RequestState>& state);
  // A read-only request's failed validation, answered with the primary's
  // snapshot: drops the speculation, repairs the cache, and reruns f on the
  // snapshot, replying after its compute; a rerun that reads outside the
  // snapshot (or writes) goes direct instead.
  void RerunOnSnapshot(const std::shared_ptr<RequestState>& state);
  // Installs speculative writes into the cache, replies, and ships the
  // followup, unless it already left.
  void CommitSpeculation(const std::shared_ptr<RequestState>& state, Value result);
  // Sends the speculation's writes the moment it ends in kLvi, ahead of the
  // LVI response.
  void SendEarlyFollowup(const std::shared_ptr<RequestState>& state);
  // Puts the followup (f's writes and result) on the wire, unacknowledged,
  // and marks it sent.
  void SendFollowup(const std::shared_ptr<RequestState>& state,
                    std::vector<BufferedWrite> writes, Value result);
  void Reply(const std::shared_ptr<RequestState>& state, Value result);
  // Single exit point for every completion (ok or not): moves the phase to
  // kDone, then counters, trace, spans and the client's callback.
  void FinishReply(const std::shared_ptr<RequestState>& state, Outcome outcome);
  // Picks the server channel for `state`: the shard owning `first_key`
  // (nullptr = shard 0).
  void RouteToServer(RequestState* state, const Key* first_key) const;
  // The acknowledgement a request's message carries. A failover replay
  // reuses an id another life issued: it carries none, and the server files
  // it under no origin.
  Ack AckFor(const RequestState& state) const;

  Simulator* sim_;
  Network* network_;
  const Region region_;
  const Region server_region_;
  net::Endpoint self_;
  net::Endpoint server_endpoint_;
  // Per-shard server channels (never empty) and the router mapping keys
  // onto them; see set_shard_endpoints.
  std::vector<net::Endpoint> shard_endpoints_;
  ShardRouter shard_router_{1};
  LviServer* server_;
  const FunctionRegistry* registry_;
  const Interpreter* interpreter_;
  const RadicalConfig& config_;
  CacheStore cache_;
  // Per-runtime codec scratch: every outgoing message's exact wire size is
  // measured by encoding into this one reusable buffer (see WireScratch).
  WireScratch wire_scratch_;
  obs::MetricsScope metrics_;
  // Resolved once: end-to-end latency histogram, bumped on every Reply.
  obs::LatencyHistogram* latency_hist_ = nullptr;
  // Resolved on the first push, so a runtime that never receives one
  // registers no push instruments.
  obs::Counter* push_applied_ = nullptr;
  obs::Counter* push_ignored_ = nullptr;
  // Resolved on the first snapshot reply, likewise.
  obs::Counter* snapshot_reruns_ = nullptr;
  obs::Counter* rerun_outside_snapshot_ = nullptr;
  ExternalServiceRegistry* externals_;
  TraceCollector* tracer_ = nullptr;
  obs::SpanCollector* spans_ = nullptr;
  // PoP crash modeling (mirrors LviServer's alive_/epoch_ pattern): events
  // scheduled before a Crash() carry the old epoch and drop on arrival.
  bool alive_ = true;
  uint64_t epoch_ = 0;
  std::vector<std::function<void()>> crash_listeners_;
  // The ids this life has drawn and not yet answered its client for; the
  // smallest is every request's acknowledgement. The epoch is the life: a
  // crash forgets them, and the next life acknowledges only its own.
  std::set<ExecutionId> open_ids_;
};

}  // namespace radical

#endif  // RADICAL_SRC_RADICAL_RUNTIME_H_
