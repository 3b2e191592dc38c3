// Runtime: Radical's near-user component (§3.1, Figure 2).
//
// For each client request the runtime (1) runs f^rw against the local cache
// to derive the read/write set, then simultaneously (2a) speculatively
// executes f against the cache through a write buffer and (2b) sends the LVI
// request — with the cache's version per item — to the near-storage
// location. The client is answered when both the speculative execution and
// the LVI response have arrived: with the speculative result if validation
// succeeded (the write followup ships the buffered writes *after* the
// reply), or with the backup execution's result if it failed (in which case
// the response's fresh items repair the cache).
//
// Cache misses put version -1 in the request and skip speculation;
// unanalyzable functions skip the protocol entirely and execute in the
// near-storage location (§3.3).

#ifndef RADICAL_SRC_RADICAL_RUNTIME_H_
#define RADICAL_SRC_RADICAL_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/registry.h"
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
  // options (retry override, consistency mode, trace opt-out, shard hint,
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
    // Cached version per write key (sorted), for post-success installs.
    std::vector<Key> write_keys;
    std::vector<Version> write_base_versions;
    // Speculation.
    std::unique_ptr<WriteBuffer> buffer;
    bool speculated = false;       // A speculative execution was started.
    bool spec_finished = false;    // ... and its completion event fired.
    Value spec_result;
    // Rendezvous.
    bool response_received = false;
    bool completed = false;  // Client answered (or completion in progress).
    LviResponse response;
    RequestTrace trace;
    // --- Retry machinery (RetryPolicy) ------------------------------------
    // The request and its wire size are kept so a retry retransmits the
    // exact same bytes (same exec_id: the server side is idempotent).
    LviRequest lvi_request;
    size_t lvi_request_size = 0;
    DirectRequest direct_request;
    size_t direct_request_size = 0;
    int lvi_attempts = 0;
    int direct_attempts = 0;
    EventId timeout_event = kInvalidEventId;  // Current attempt's timeout.
    EventId deadline_event = kInvalidEventId;  // Deadline watchdog (if any).
    bool lvi_abandoned = false;  // LVI budget exhausted; degraded to direct.
    // Two-RTT ablation: the followup kept for retransmission, the result
    // held back until its ack, and the ack timer.
    WriteFollowup followup;
    size_t followup_size = 0;
    Value pending_result;
    int followup_attempts = 0;
    EventId followup_timer = kInvalidEventId;
    bool followup_done = false;
  };

  void SubmitImpl(Request request, RequestOptions options, OutcomeFn done);
  // True when `state` belongs to an epoch that died in a Crash(); such
  // requests silently stop (the session layer owns replaying them).
  bool DeadRequest(const RequestState& state) const {
    return !alive_ || state.born_epoch != epoch_;
  }
  // Raises the session's high-water mark to each fresh (key, version).
  static void AdvanceSessionFloor(const std::shared_ptr<RequestState>& state,
                                  const std::vector<FreshItem>& items);
  // Fires Outcome{kPreview} with the speculative result if the request asked
  // for one and the final is not already determined. At most once.
  void MaybeDeliverPreview(const std::shared_ptr<RequestState>& state);
  // Runs the LVI path once f^rw produced a read/write set.
  void StartLvi(std::shared_ptr<RequestState> state, RwSet rw);
  // Fallback: execute in the near-storage location (unanalyzable functions,
  // f^rw failure, or an exhausted LVI retry budget).
  void InvokeDirect(std::shared_ptr<RequestState> state);

  // --- Request-lifecycle timeouts and retries (RetryPolicy) ---------------
  // One LVI attempt: transmit (unless the server is deterministically
  // unreachable — fail fast) and arm the attempt's timeout.
  void SendLviAttempt(const std::shared_ptr<RequestState>& state);
  void OnLviResponse(const std::shared_ptr<RequestState>& state, LviResponse response);
  void OnLviTimeout(const std::shared_ptr<RequestState>& state);
  // One direct attempt; retries are unbounded (capped backoff) — direct is
  // the terminal fallback, so every Invoke answers once the server is back.
  void SendDirectAttempt(const std::shared_ptr<RequestState>& state);
  void OnDirectResponse(const std::shared_ptr<RequestState>& state, DirectResponse response);
  void OnDirectTimeout(const std::shared_ptr<RequestState>& state);
  // Two-RTT ablation: followup transmission with ack tracking.
  void SendFollowupAttempt(const std::shared_ptr<RequestState>& state);
  void OnFollowupAck(const std::shared_ptr<RequestState>& state, bool applied);
  void OnFollowupTimeout(const std::shared_ptr<RequestState>& state);
  void GiveUpFollowup(const std::shared_ptr<RequestState>& state);
  // --- Overload control ----------------------------------------------------
  // Reaction to an explicit backpressure reply (kOverloaded / kShed) on the
  // LVI or direct path: retry after max(server hint, backoff) if the retry
  // budget allows, else complete the request with RequestStatus::kRejected. Never
  // degrades to the direct path — that would move the load, not shed it.
  void OnBackpressure(const std::shared_ptr<RequestState>& state, AttemptPath path,
                      ResponseStatus status, SimDuration retry_after);
  // Takes `cost` tokens from the runtime-wide retry budget (config_.retry);
  // true = spend allowed. Always true when no budget is configured.
  bool SpendRetryBudget(double cost);
  // True when the request carries a deadline that has already passed.
  bool DeadlinePassed(const RequestState& state) const;
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
  // Called when either the speculative execution or the LVI response is
  // ready; completes the request when both are.
  void TryComplete(const std::shared_ptr<RequestState>& state);
  void CompleteValidated(const std::shared_ptr<RequestState>& state);
  void CompleteFailed(const std::shared_ptr<RequestState>& state);
  // Installs speculative writes into the cache and ships the followup.
  void CommitSpeculation(const std::shared_ptr<RequestState>& state, Value result);
  void Reply(const std::shared_ptr<RequestState>& state, Value result);
  // Single exit point for every completion (ok or not): counters, trace,
  // spans, then whichever of done/outcome_done the caller registered.
  void FinishReply(const std::shared_ptr<RequestState>& state, Outcome outcome);
  // Message legs to/from the LVI server over the fabric: the WAN path plus
  // the intra-DC hop to the server's EC2 instance, which rides as the server
  // endpoint's extra_hop_delay (kServerHopRtt / 2 each way; Table 2's
  // lat_nu<->ns is the sum of both).
  // `server` is the request's channel (RequestState::server_ep), picked by
  // RouteToServer.
  // `deadline` (0 = none) rides on the envelope: the fabric discards the
  // message outright when it would land past the deadline — the receiver
  // would only throw it away. Followups never carry one (writes must reach
  // the primary regardless of the client's patience).
  void SendToServer(const net::Endpoint& server, net::MessageKind kind, size_t bytes,
                    std::function<void()> deliver, SimTime deadline = 0);
  void SendFromServer(const net::Endpoint& server, net::MessageKind kind, size_t bytes,
                      std::function<void()> deliver, SimTime deadline = 0);
  // Picks the server channel for `state`: the shard owning `first_key`
  // (nullptr = shard 0).
  void RouteToServer(RequestState* state, const Key* first_key) const;

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
  ExternalServiceRegistry* externals_;
  TraceCollector* tracer_ = nullptr;
  obs::SpanCollector* spans_ = nullptr;
  // Runtime-wide retry-budget token bucket (see RetryPolicy::retry_budget).
  // Lazily refilled with virtual time on each spend attempt; initialized on
  // first use so a no-budget deployment never touches it.
  bool retry_bucket_init_ = false;
  double retry_tokens_ = 0.0;
  SimTime retry_tokens_at_ = 0;
  // PoP crash modeling (mirrors LviServer's alive_/epoch_ pattern): events
  // scheduled before a Crash() carry the old epoch and drop on arrival.
  bool alive_ = true;
  uint64_t epoch_ = 0;
  std::vector<std::function<void()>> crash_listeners_;
};

}  // namespace radical

#endif  // RADICAL_SRC_RADICAL_RUNTIME_H_
