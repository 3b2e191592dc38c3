#include "src/radical/runtime.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "src/common/logging.h"
#include "src/lvi/codec.h"

namespace radical {

Runtime::Runtime(Simulator* sim, Network* network, Region region, Region server_region,
                 LviServer* server, const FunctionRegistry* registry,
                 const Interpreter* interpreter, const RadicalConfig& config,
                 ExternalServiceRegistry* externals, net::Endpoint server_endpoint)
    : sim_(sim),
      network_(network),
      region_(region),
      server_region_(server_region),
      server_(server),
      registry_(registry),
      interpreter_(interpreter),
      config_(config),
      cache_(config.cache),
      metrics_(&sim->metrics(),
               sim->metrics().UniqueScopeName(std::string("runtime.") + RegionName(region))),
      externals_(externals) {
  latency_hist_ = metrics_.histogram("e2e_latency");
  self_ = network->AddEndpoint(std::string("runtime@") + RegionName(region), region);
  if (server_endpoint.valid()) {
    server_endpoint_ = server_endpoint;
  } else {
    // Standalone runtime (tests): register a private server address carrying
    // the intra-DC hop to the server's EC2 instance.
    server_endpoint_ = network->AddEndpoint(
        std::string("lvi-server@") + RegionName(server_region), server_region,
        kServerHopRtt / 2);
  }
  shard_endpoints_ = {server_endpoint_};
}

void Runtime::set_shard_endpoints(std::vector<net::Endpoint> endpoints) {
  assert(!endpoints.empty() && "a server has at least one shard");
  shard_endpoints_ = std::move(endpoints);
  shard_router_ = ShardRouter(static_cast<int>(shard_endpoints_.size()));
}

Ack Runtime::AckFor(const RequestState& state) const {
  if (state.replay_exec_id != 0) {
    return Ack{};
  }
  assert(!open_ids_.empty() && "a request's own id is open while it sends");
  return Ack{epoch_, *open_ids_.begin()};
}

void Runtime::RouteToServer(RequestState* state, const Key* first_key) const {
  const int shard = first_key == nullptr ? 0 : shard_router_.ShardOf(*first_key);
  state->server_ep = shard_endpoints_[static_cast<size_t>(shard)];
}

void Runtime::Crash() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  ++epoch_;
  open_ids_.clear();
  metrics_.Increment("crashes");
  // The process died: the cache's contents are gone (a restarted PoP warms
  // from scratch) and every in-flight request's pending events now carry a
  // dead epoch, so they drop on arrival instead of answering anyone.
  cache_.CrashRestart();
  // One-shot: listeners re-register on whichever runtime they re-bind to.
  std::vector<std::function<void()>> listeners = std::move(crash_listeners_);
  crash_listeners_.clear();
  for (auto& listener : listeners) {
    listener();
  }
}

void Runtime::Recover() {
  if (alive_) {
    return;
  }
  alive_ = true;
  metrics_.Increment("recoveries");
}

void Runtime::OnCachePush(const CachePush& push) {
  if (push_applied_ == nullptr) {
    push_applied_ = metrics_.counter("cache_push_applied");
    push_ignored_ = metrics_.counter("cache_push_ignored");
  }
  if (!alive_) {
    push_ignored_->Increment(push.items.size());
    return;
  }
  for (const FreshItem& item : push.items) {
    (cache_.Refresh(item.key, item.value, item.version) ? push_applied_ : push_ignored_)
        ->Increment();
  }
}

namespace {

// The phase in which a path's attempts are live; an attempt event that finds
// the request in any other phase arrived too late and drops.
RequestPhase PhaseOf(AttemptPath path) {
  switch (path) {
    case AttemptPath::kLvi:
      return RequestPhase::kLvi;
    case AttemptPath::kDirect:
      return RequestPhase::kDirect;
  }
  return RequestPhase::kDone;
}

// From kCommitting on the outcome is fixed and only its delivery remains.
bool Settled(const Sm<RequestPhase>& phase) {
  return phase.Is(RequestPhase::kCommitting) || phase.Is(RequestPhase::kDone);
}

}  // namespace

void Runtime::Submit(Request request, RequestOptions options, OutcomeFn done) {
  if (!alive_) {
    // A crashed PoP accepts nothing; sessions re-bind on the crash signal,
    // so only a caller holding a stale handle lands here.
    metrics_.Increment("rejected_runtime_down");
    auto fn = std::make_shared<OutcomeFn>(std::move(done));
    sim_->Schedule(0, [fn] { (*fn)(Outcome{RequestStatus::kRejected, Value(), 0}); });
    return;
  }
  metrics_.Increment("requests");
  const SimTime invoked_at = sim_->Now();
  // Everything per-request moves onto the heap-allocated state up front, so
  // the scheduled closure stays within the event queue's inline capacity
  // (this + shared_ptr + the consistency mode). exec_id is still assigned
  // when the event *runs* — id allocation order is part of the deterministic
  // schedule and must not move to Submit time.
  auto state = std::make_shared<RequestState>();
  state->function = std::move(request.function);
  state->inputs = std::move(request.inputs);
  state->done = std::move(done);
  state->session = std::move(options.session);
  state->session_seq = options.session_seq;
  state->replay_exec_id = options.replay_exec_id;
  state->preview_requested = options.consistency == ConsistencyMode::kPreviewThenFinal ||
                             options.consistency == ConsistencyMode::kSession;
  state->born_epoch = epoch_;
  state->retry = options.retry.has_value() ? *options.retry : config_.retry;
  state->trace_enabled = options.trace;
  // A relative deadline anchors at Submit: instantiation and blob load count
  // against it, same as they count against the user's patience.
  state->deadline = options.deadline == 0 ? 0 : invoked_at + options.deadline;
  state->trace.region = region_;
  state->trace.invoked = invoked_at;
  if (state->deadline != 0) {
    // Deadline watchdog: a deadlined request always completes by its
    // deadline, even with retries disabled and its response discarded on the
    // wire (the fabric drops messages that would land past the deadline, and
    // without a retry timer nothing else would ever fire).
    state->deadline_event = sim_->Schedule(state->deadline - invoked_at, [this, state] {
      state->deadline_event = kInvalidEventId;
      if (!Settled(state->phase) && !DeadRequest(*state)) {
        CompleteRejected(state, RequestStatus::kDeadlineExceeded, 0);
      }
    });
  }
  const ConsistencyMode consistency = options.consistency;
  // §5.5 components (1) and (2): instantiate the function, load the blob.
  sim_->Schedule(config_.lambda_invoke + config_.blob_load,
                 [this, state = std::move(state), consistency]() mutable {
    if (DeadRequest(*state)) {
      return;
    }
    // Failover replays reuse the original execution's id so the server's
    // idempotency machinery resolves it exactly once; everything else draws
    // a fresh id here (allocation order is part of the schedule).
    state->exec_id = state->replay_exec_id != 0 ? state->replay_exec_id : sim_->NextId();
    if (state->replay_exec_id == 0 && !state->phase.Is(RequestPhase::kDone)) {
      // Open from the moment it exists: a request sent while this one runs
      // f^rw must not acknowledge it.
      open_ids_.insert(state->exec_id);
    }
    if (state->session != nullptr && state->session->on_exec_assigned) {
      state->session->on_exec_assigned(state->session_seq, state->exec_id);
    }
    RouteToServer(state.get(), nullptr);
    state->trace.exec_id = state->exec_id;
    state->trace.function = state->function;
    state->trace.frw_started = sim_->Now();
    const AnalyzedFunction* fn = registry_->Find(state->function);
    assert(fn != nullptr && "function not registered");
    if (consistency == ConsistencyMode::kDirect) {
      // The caller opted out of the near-user protocol: execute at the
      // near-storage location, same as the unanalyzable path.
      metrics_.Increment("direct_requested");
      InvokeDirect(std::move(state));
      return;
    }
    if (!fn->analyzable) {
      // §3.3 failure case: always run in the near-storage location.
      metrics_.Increment("direct_unanalyzable");
      InvokeDirect(std::move(state));
      return;
    }
    // (1) Run f^rw on the same inputs to get this execution's read/write set.
    RwPrediction prediction = PredictRwSet(*fn, state->inputs, &cache_, *interpreter_);
    if (!prediction.ok()) {
      metrics_.Increment("frw_failed");
      InvokeDirect(std::move(state));
      return;
    }
    // f^rw runs strictly before f (its latency is on the critical path,
    // §3.3/§7); gathering the item versions costs one batched cache read.
    const SimDuration frw_cost =
        config_.frw_invoke_overhead + prediction.elapsed + cache_.options().read_latency;
    sim_->Schedule(frw_cost, [this, state = std::move(state),
                              rw = std::move(prediction.rw)]() mutable {
      StartLvi(std::move(state), std::move(rw));
    });
  });
}

void Runtime::StartLvi(std::shared_ptr<RequestState> state, RwSet rw) {
  if (DeadRequest(*state) || state->phase.Is(RequestPhase::kDone)) {
    return;  // Crashed, or the deadline watchdog answered during f^rw.
  }
  state->phase.Move(RequestPhase::kLvi);
  RequestTrace::StampOnce(&state->trace.lvi_sent, sim_->Now());
  const AnalyzedFunction* fn = registry_->Find(state->function);
  // Assemble the LVI request: every item with its cached version and lock
  // mode; misses carry version -1 so validation is guaranteed to fail and
  // the response repopulates the cache (§3.2).
  LviRequest request;
  request.exec_id = state->exec_id;
  request.origin = region_;
  request.function = state->function;
  request.inputs = state->inputs;
  request.deadline = state->deadline;
  request.ack = AckFor(*state);
  // Speculation is pointless only when a key the function *reads* is absent
  // from the cache (validation is then guaranteed to fail, §3.2). A key it
  // writes but never reads is a blind write: validation skips its version,
  // and a validated reply repins it when the cache's differs (OnLviResponse).
  // A missing one is normal — functions create keys (new posts, bookings,
  // votes).
  bool read_missing = false;
  for (const Key& key : rw.AllKeysSorted()) {
    const Version version = cache_.VersionOf(key);
    const bool read = rw.reads.count(key) > 0;
    if (version == kMissingVersion && read) {
      read_missing = true;
    }
    const LockMode mode = rw.ModeFor(key);
    request.items.push_back(LviItem{key, version, mode, mode == LockMode::kWrite && !read});
    if (mode == LockMode::kWrite) {
      state->write_keys.push_back(key);
      state->write_base_versions.push_back(version);
    }
  }
  // Session admission check (read-your-writes / monotonic reads): an item
  // the function reads that the cache holds *below* the session's
  // high-water mark means speculating would preview state the session has
  // already seen past (a blind write reads nothing, so it cannot). Upgrade
  // to a validated read — the LVI request still goes out (validation fails
  // against the fresher primary and the backup execution answers with
  // current state), but no speculation runs and no stale preview fires. The
  // floor also travels on the wire so validation can assert the primary
  // itself hasn't regressed.
  bool session_stale = false;
  if (state->session != nullptr) {
    request.session_id = state->session->id;
    for (LviItem& item : request.items) {
      const auto it = state->session->floor.find(item.key);
      if (it != state->session->floor.end()) {
        item.session_floor = it->second;
      }
      if (!item.blind && item.cached_version < item.session_floor) {
        session_stale = true;
      }
    }
    if (session_stale) {
      ++state->session->stale_upgrades;
      metrics_.Increment("session_stale_upgrade");
    }
  }
  // (2b) Send the LVI request to the near-storage location. Wire sizes are
  // the exact encoded lengths (src/lvi/codec.h). The request is kept on the
  // state for retransmission: exec_ids make the server side idempotent, so a
  // retry replays the cached reply or re-attaches to the running pipeline
  // rather than re-locking or re-executing.
  state->lvi_request = std::move(request);
  state->lvi_request_size = wire_scratch_.SizeOf(state->lvi_request);
  if (!state->lvi_request.items.empty()) {
    // Sharded server: now that the key set is known, route the request onto
    // its home shard's channel.
    RouteToServer(state.get(), &state->lvi_request.items.front().key);
  }
  SendAttempt(state, AttemptPath::kLvi);
  if (state->phase.Is(RequestPhase::kDone)) {
    // The first attempt already ended the request (deadline passed before
    // the send): don't start a speculation nobody will consume.
    return;
  }

  // (2a) Speculatively execute f against the cache, writes buffered. Skipped
  // on a cache miss (validation is guaranteed to fail) and under the
  // no-speculation ablation.
  if (read_missing) {
    metrics_.Increment("spec_skipped_miss");
    return;
  }
  if (session_stale) {
    metrics_.Increment("spec_skipped_session_stale");
    return;
  }
  if (!config_.speculation_enabled) {
    metrics_.Increment("spec_disabled");
    return;
  }
  state->buffer = std::make_unique<WriteBuffer>(&cache_);
  const ExecEnv env{state->exec_id, externals_};
  const ExecResult exec = interpreter_->Execute(fn->original, state->inputs, state->buffer.get(),
                                                config_.server.exec_limits, &env);
  assert(exec.ok() && "speculative execution failed");
  state->speculation = Speculation::kRunning;
  state->trace.speculated = true;
  metrics_.Increment("speculations");
  sim_->Schedule(exec.elapsed, [this, state, result = exec.return_value] {
    if (DeadRequest(*state) || state->speculation == Speculation::kDropped) {
      return;
    }
    state->speculation = Speculation::kFinished;
    RequestTrace::StampOnce(&state->trace.spec_finished, sim_->Now());
    state->spec_result = result;
    MaybeDeliverPreview(state);
    if (state->phase.Is(RequestPhase::kLvi)) {
      SendEarlyFollowup(state);
    }
    // §3.2: "Radical delays responding to the client until it receives a
    // response from the near-storage location and f finishes executing".
    if (state->phase.Is(RequestPhase::kAwaitSpec)) {
      state->phase.Move(RequestPhase::kCommitting);
      CompleteValidated(state);
    }
  });
}

void Runtime::SendEarlyFollowup(const std::shared_ptr<RequestState>& state) {
  // (8a) Ship the speculation's writes now, behind the LVI request on the
  // same FIFO link: the server parks them until validation and commits them
  // there, so the writer's locks are not held across the reply's round
  // trip. Only while an attempt is on its way (a retry waiting out a
  // backpressure hint has none, so no pipeline would hold the followup) and
  // the fault state lets the send through: followup_sent then means the
  // server may hold it.
  const bool attempt_in_flight = !state->retry.enabled || state->timer != kInvalidEventId;
  if (!attempt_in_flight || !self_.CanReach(state->server_ep)) {
    return;
  }
  std::vector<BufferedWrite> writes = state->buffer->Writes();
  if (!writes.empty()) {
    SendFollowup(state, std::move(writes), state->spec_result);
  }
}

void Runtime::SendFollowup(const std::shared_ptr<RequestState>& state,
                           std::vector<BufferedWrite> writes, Value result) {
  state->followup_sent = true;
  WriteFollowup followup;
  followup.exec_id = state->exec_id;
  followup.writes = std::move(writes);
  followup.result = std::move(result);
  const size_t followup_size = wire_scratch_.SizeOf(followup);
  self_.Send(state->server_ep, net::MessageKind::kWriteFollowup, followup_size,
             [this, followup = std::move(followup)]() mutable {
    server_->HandleFollowup(std::move(followup));
  });
}

void Runtime::MaybeDeliverPreview(const std::shared_ptr<RequestState>& state) {
  // A preview is worth delivering only while the final is still unknown: once
  // the LVI response is in, the authoritative callback follows at once and a
  // preview would be pure noise.
  if (!state->preview_requested ||
      !(state->phase.Is(RequestPhase::kLvi) || state->phase.Is(RequestPhase::kDirect))) {
    return;
  }
  state->preview_fired = true;
  metrics_.Increment("previews_delivered");
  if (state->session != nullptr) {
    ++state->session->previews;
  }
  RequestTrace::StampOnce(&state->trace.preview_delivered, sim_->Now());
  // Copy, not move: the same callback still owes the client its final.
  OutcomeFn done = state->done;
  done(Outcome{RequestStatus::kPreview, state->spec_result, 0});
}

SimDuration Runtime::AttemptTimeout(const RetryPolicy& retry, int attempt) {
  double timeout = static_cast<double>(retry.request_timeout);
  for (int i = 1; i < attempt; ++i) {
    timeout *= retry.backoff;
  }
  return static_cast<SimDuration>(
      std::min(timeout, static_cast<double>(retry.max_backoff)));
}

void Runtime::CancelTimeout(const std::shared_ptr<RequestState>& state) {
  if (state->timer != kInvalidEventId) {
    sim_->Cancel(state->timer);
    state->timer = kInvalidEventId;
  }
}

void Runtime::RecordAttempt(const std::shared_ptr<RequestState>& state, AttemptPath path,
                            int number) {
  RequestTrace& trace = state->trace;
  ++trace.attempts_total;
  if (trace.attempts.size() >= kMaxStoredAttempts) {
    // A request stuck behind a long partition retries forever; without this
    // cap its trace grew one record per retry for the life of the outage.
    // Evict the oldest *resolved* record — open attempts stay, because
    // ResolveAttempt must still find them. At most one attempt per path is
    // open at a time, so a full window always has something resolved.
    bool evicted = false;
    for (auto it = trace.attempts.begin(); it != trace.attempts.end(); ++it) {
      if (!it->outcome.empty()) {
        trace.attempts.erase(it);
        evicted = true;
        break;
      }
    }
    ++trace.attempts_dropped;
    if (!evicted) {
      return;  // Every stored record is open: count the send, drop its record.
    }
  }
  trace.attempts.push_back(RequestAttempt{path, number, sim_->Now(), 0, {}});
}

void Runtime::ResolveAttempt(const std::shared_ptr<RequestState>& state, AttemptPath path,
                             const char* outcome) {
  auto& attempts = state->trace.attempts;
  for (auto it = attempts.rbegin(); it != attempts.rend(); ++it) {
    if (it->path == path && it->outcome.empty()) {
      it->resolved = sim_->Now();
      it->outcome = outcome;
      return;
    }
  }
}

void Runtime::SendAttempt(const std::shared_ptr<RequestState>& state, AttemptPath path) {
  if (!state->phase.Is(PhaseOf(path)) || DeadRequest(*state)) {
    return;
  }
  if (DeadlinePassed(*state)) {
    CompleteRejected(state, RequestStatus::kDeadlineExceeded, 0);
    return;
  }
  const int attempt = ++state->attempts[static_cast<int>(path)];
  if (attempt > 1) {
    metrics_.Increment("retries");
    ++state->trace.retries;
  }
  // Fail fast when the deterministic fault state (partition, isolation)
  // guarantees the send would be dropped: skip the wire, keep the backoff
  // schedule running at a quarter of the timeout so recovery is noticed
  // quickly. Probabilistic loss is invisible, as on a real network.
  const bool reachable = self_.CanReach(state->server_ep);
  RecordAttempt(state, path, attempt);
  if (reachable) {
    Transmit(state, path);
  } else {
    metrics_.Increment("fast_fail");
    ResolveAttempt(state, path, "fast_fail");
  }
  if (!state->retry.enabled) {
    return;
  }
  const SimDuration timeout = AttemptTimeout(state->retry, attempt);
  state->timer = sim_->Schedule(reachable ? timeout : timeout / 4, [this, state, path] {
    state->timer = kInvalidEventId;
    OnAttemptTimeout(state, path);
  });
}

void Runtime::Transmit(const std::shared_ptr<RequestState>& state, AttemptPath path) {
  const net::Endpoint& server = state->server_ep;
  switch (path) {
    case AttemptPath::kLvi:
      self_.Send(server, net::MessageKind::kLviRequest, state->lvi_request_size, [this, state] {
        server_->HandleLviRequest(state->lvi_request, [this, state](LviResponse response) {
          const size_t size = wire_scratch_.SizeOf(response);
          state->server_ep.Send(self_, net::MessageKind::kLviResponse, size,
                                [this, state, response = std::move(response)]() mutable {
                                  OnLviResponse(state, std::move(response));
                                },
                                state->deadline);
        });
      }, state->deadline);
      return;
    case AttemptPath::kDirect:
      self_.Send(server, net::MessageKind::kDirectRequest, state->direct_request_size,
                 [this, state] {
        server_->HandleDirect(state->direct_request, [this, state](DirectResponse response) {
          const size_t size = wire_scratch_.SizeOf(response);
          state->server_ep.Send(self_, net::MessageKind::kDirectResponse, size,
                                [this, state, response = std::move(response)]() mutable {
                                  OnDirectResponse(state, std::move(response));
                                },
                                state->deadline);
        });
      }, state->deadline);
      return;
  }
}

void Runtime::OnAttemptTimeout(const std::shared_ptr<RequestState>& state, AttemptPath path) {
  if (!state->phase.Is(PhaseOf(path)) || DeadRequest(*state)) {
    return;
  }
  metrics_.Increment("timeouts");
  ResolveAttempt(state, path, "timeout");
  if (DeadlinePassed(*state)) {
    CompleteRejected(state, RequestStatus::kDeadlineExceeded, 0);
    return;
  }
  if (AttemptsExhausted(*state, path)) {
    ExhaustLviAttempts(state);
    return;
  }
  SendAttempt(state, path);
}

bool Runtime::DeadlinePassed(const RequestState& state) const {
  return state.deadline != 0 && sim_->Now() >= state.deadline;
}

bool Runtime::AttemptsExhausted(const RequestState& state, AttemptPath path) const {
  return path == AttemptPath::kLvi &&
         state.attempts[static_cast<int>(path)] >= state.retry.max_lvi_attempts;
}

void Runtime::ExhaustLviAttempts(const std::shared_ptr<RequestState>& state) {
  if (state->followup_sent) {
    // The early followup may have committed at a validation whose reply was
    // lost: only an LVI reply says whether the speculation stands, and a
    // direct run would execute the function a second time. The LVI path
    // takes the direct path's place instead: a fresh backoff schedule that
    // never runs out.
    metrics_.Increment("lvi_retry_after_followup");
    state->attempts[static_cast<int>(AttemptPath::kLvi)] = 0;
    SendAttempt(state, AttemptPath::kLvi);
    return;
  }
  // Degrade to the direct path, which retries without bound. Discard the
  // speculation — the direct response is authoritative and never commits
  // through a followup.
  metrics_.Increment("fallback_direct");
  state->trace.fallback_direct = true;
  if (state->buffer != nullptr) {
    state->buffer->Discard();
    state->buffer.reset();
  }
  InvokeDirect(state);
}

bool Runtime::AcceptResponse(const std::shared_ptr<RequestState>& state, AttemptPath path,
                             ResponseStatus status, SimDuration retry_after) {
  if (DeadRequest(*state)) {
    return false;
  }
  if (!state->phase.Is(PhaseOf(path))) {
    // A slow or duplicate response raced a retry, or the request moved on
    // (the direct fallback owns it, or it already ended): the first one in
    // wins.
    metrics_.Increment("late_response_ignored");
    return false;
  }
  CancelTimeout(state);
  if (status != ResponseStatus::kOk) {
    // Backpressure, not an answer: the server refused admission (kOverloaded)
    // or shed the request against its deadline (kShed). Nothing executed,
    // and no pipeline holds the early followup: it was dropped or discarded,
    // so a later validation sends it again.
    state->followup_sent = false;
    const bool overloaded = status == ResponseStatus::kOverloaded;
    metrics_.Increment(overloaded ? "rejected_by_server" : "shed_by_server");
    ResolveAttempt(state, path, overloaded ? "rejected" : "shed");
    OnBackpressure(state, path, retry_after);
    return false;
  }
  ResolveAttempt(state, path, "response");
  RequestTrace::StampOnce(&state->trace.response_received, sim_->Now());
  return true;
}

void Runtime::OnLviResponse(const std::shared_ptr<RequestState>& state, LviResponse response) {
  if (!AcceptResponse(state, AttemptPath::kLvi, response.status, response.retry_after)) {
    return;
  }
  state->trace.validated = response.validated;
  state->response = std::move(response);
  if (state->response.snapshot) {
    RerunOnSnapshot(state);
    return;
  }
  if (!state->response.validated) {
    state->phase.Move(RequestPhase::kCommitting);
    CompleteFailed(state);
    return;
  }
  // Blind writes the primary holds at another version than the cache: the
  // speculation installs them at the pinned version + 1, where the primary
  // applies them.
  for (const FreshItem& repinned : state->response.fresh_items) {
    const auto pos =
        std::lower_bound(state->write_keys.begin(), state->write_keys.end(), repinned.key);
    assert(pos != state->write_keys.end() && *pos == repinned.key);
    state->write_base_versions[static_cast<size_t>(pos - state->write_keys.begin())] =
        repinned.version;
  }
  if (state->speculation == Speculation::kRunning) {
    state->phase.Move(RequestPhase::kAwaitSpec);
  } else {
    state->phase.Move(RequestPhase::kCommitting);
    CompleteValidated(state);
  }
}

void Runtime::OnDirectResponse(const std::shared_ptr<RequestState>& state,
                               DirectResponse response) {
  if (!AcceptResponse(state, AttemptPath::kDirect, response.status, response.retry_after)) {
    return;
  }
  RepairCache(response.fresh_items);
  AdvanceSessionFloor(state, response.fresh_items);
  Reply(state, response.result);
}

void Runtime::OnBackpressure(const std::shared_ptr<RequestState>& state, AttemptPath path,
                             SimDuration retry_after) {
  if (DeadlinePassed(*state)) {
    CompleteRejected(state, RequestStatus::kDeadlineExceeded, retry_after);
    return;
  }
  // An LVI request that exhausts its attempts on backpressure does NOT
  // degrade to the direct path — that sends the same work to the same
  // overloaded deployment with a longer critical path. It completes
  // kRejected, which is the graceful ending the attempt budget provides.
  if (!state->retry.enabled || AttemptsExhausted(*state, path)) {
    CompleteRejected(state, RequestStatus::kRejected, retry_after);
    return;
  }
  // Honor the server's drain hint, never retrying sooner than the backoff
  // schedule would have: an immediate resend into a server that just said
  // "overloaded" is precisely the amplification this path removes.
  const SimDuration wait = std::max(
      retry_after, AttemptTimeout(state->retry, state->attempts[static_cast<int>(path)]));
  sim_->Schedule(wait, [this, state, path] { SendAttempt(state, path); });
}

void Runtime::CompleteRejected(const std::shared_ptr<RequestState>& state, RequestStatus status,
                               SimDuration retry_after) {
  CancelTimeout(state);
  if (state->buffer != nullptr) {
    state->buffer->Discard();
    state->buffer.reset();
  }
  metrics_.Increment(status == RequestStatus::kDeadlineExceeded ? "deadline_exceeded_replies"
                                                                : "rejected_replies");
  FinishReply(state, Outcome{status, Value(), retry_after});
}

void Runtime::AdvanceSessionFloor(const std::shared_ptr<RequestState>& state,
                                  const std::vector<FreshItem>& items) {
  if (state->session == nullptr) {
    return;
  }
  for (const FreshItem& item : items) {
    Version& slot = state->session->floor[item.key];
    slot = std::max(slot, item.version);
  }
}

void Runtime::RepairCache(const std::vector<FreshItem>& items) {
  // A push may have brought a newer copy while the reply was on its way;
  // the reply never moves an item back.
  for (const FreshItem& item : items) {
    if (item.version > cache_.VersionOf(item.key)) {
      cache_.Install(item.key, item.value, item.version);
    }
  }
}

void Runtime::CompleteValidated(const std::shared_ptr<RequestState>& state) {
  if (state->speculation == Speculation::kFinished) {
    metrics_.Increment("validated_speculative");
    CommitSpeculation(state, state->spec_result);
    return;
  }
  // Validation succeeded but nothing ran speculatively (miss whose key is
  // absent at the primary too, or the no-speculation ablation): execute now
  // against the cache — validation pinned every item to the primary's state,
  // so the local run is equivalent to a near-storage run.
  metrics_.Increment("validated_local_exec");
  const AnalyzedFunction* fn = registry_->Find(state->function);
  state->buffer = std::make_unique<WriteBuffer>(&cache_);
  const ExecEnv env{state->exec_id, externals_};
  const ExecResult exec = interpreter_->Execute(fn->original, state->inputs, state->buffer.get(),
                                                config_.server.exec_limits, &env);
  assert(exec.ok());
  sim_->Schedule(exec.elapsed, [this, state, result = exec.return_value] {
    if (DeadRequest(*state)) {
      return;
    }
    CommitSpeculation(state, result);
  });
}

void Runtime::CommitSpeculation(const std::shared_ptr<RequestState>& state, Value result) {
  const std::vector<BufferedWrite> writes = state->buffer->Writes();
  // Install the speculative writes into the cache at validated (or, for a
  // repinned blind write, pinned) version + 1 — the exact version the
  // primary will assign when the followup applies — and bump the version
  // along with the update (§3.1).
  for (const BufferedWrite& write : writes) {
    const auto pos =
        std::lower_bound(state->write_keys.begin(), state->write_keys.end(), write.key);
    assert(pos != state->write_keys.end() && *pos == write.key &&
           "speculative write outside the predicted write set");
    const size_t idx = static_cast<size_t>(pos - state->write_keys.begin());
    const Version installed = state->write_base_versions[idx] + 1;
    cache_.Install(write.key, write.value, installed);
    if (state->session != nullptr) {
      Version& slot = state->session->floor[write.key];
      slot = std::max(slot, installed);
    }
  }
  if (state->session != nullptr) {
    // Validation pinned every item's cached version to the primary: those
    // are versions this session has now observed, so they raise its floor
    // (reads too — monotonic reads span the whole item set).
    for (const LviItem& item : state->lvi_request.items) {
      if (item.cached_version > 0) {
        Version& slot = state->session->floor[item.key];
        slot = std::max(slot, item.cached_version);
      }
    }
  }
  const SimDuration install_cost = writes.empty() ? 0 : cache_.options().write_latency;
  sim_->Schedule(install_cost, [this, state, result = std::move(result),
                                writes = std::move(writes)]() mutable {
    if (DeadRequest(*state)) {
      return;
    }
    if (writes.empty()) {
      Reply(state, std::move(result));
      return;
    }
    // (7a) Reply. Unless it left when the speculation ended, (8a) ship the
    // followup now — the write intent guarantees the updates reach the
    // primary even if this message is lost. A retried request sends it
    // again: the early one may have trailed a lost attempt and been
    // discarded with no pipeline to join, leaving the answered attempt's
    // intent to the intent timer. A duplicate is discarded.
    Reply(state, result);
    if (!state->followup_sent || state->trace.retries > 0) {
      SendFollowup(state, std::move(writes), std::move(result));
    }
  });
}

void Runtime::CompleteFailed(const std::shared_ptr<RequestState>& state) {
  metrics_.Increment("invalidated_speculative");
  // (8b) Repair the cache with the fresh items from the backup execution,
  // then (9b) return the backup result to the client.
  if (state->buffer != nullptr) {
    state->buffer->Discard();
  }
  RepairCache(state->response.fresh_items);
  AdvanceSessionFloor(state, state->response.fresh_items);
  if (state->session != nullptr) {
    // Items that *did* match the primary were observed at their cached
    // version even though the request as a whole aborted.
    for (const LviItem& item : state->lvi_request.items) {
      if (item.cached_version > 0) {
        Version& slot = state->session->floor[item.key];
        slot = std::max(slot, item.cached_version);
      }
    }
  }
  const SimDuration repair_cost =
      state->response.fresh_items.empty() ? 0 : cache_.options().write_latency;
  sim_->Schedule(repair_cost, [this, state] {
    if (DeadRequest(*state)) {
      return;
    }
    Reply(state, state->response.backup_result);
  });
}

namespace {

// A read-only view of an LVI snapshot reply's items (sorted by key): a Get
// serves the primary's copy at no latency, since the reply already carries
// it; a key outside the snapshot reads as absent and a Put is dropped. The
// caller checks the run's ExecResult for either before using its result.
class SnapshotView : public Storage {
 public:
  explicit SnapshotView(const std::vector<FreshItem>& items) : items_(items) {}

  std::optional<Item> Get(const Key& key, SimDuration* /*latency*/) override {
    const FreshItem* item = Find(key);
    if (item == nullptr || item->version == kMissingVersion) {
      return std::nullopt;
    }
    return Item{item->value, item->version};
  }
  void Put(const Key& /*key*/, const Value& /*value*/, SimDuration* /*latency*/) override {}

  // True when the run wrote nothing and read only keys of the snapshot.
  bool Covers(const ExecResult& exec) const {
    return exec.writes.empty() &&
           std::all_of(exec.reads.begin(), exec.reads.end(),
                       [this](const Key& key) { return Find(key) != nullptr; });
  }

 private:
  const FreshItem* Find(const Key& key) const {
    const auto pos = std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const FreshItem& item, const Key& k) { return item.key < k; });
    return pos != items_.end() && pos->key == key ? &*pos : nullptr;
  }

  const std::vector<FreshItem>& items_;
};

}  // namespace

void Runtime::RerunOnSnapshot(const std::shared_ptr<RequestState>& state) {
  if (snapshot_reruns_ == nullptr) {
    snapshot_reruns_ = metrics_.counter("snapshot_reruns");
    rerun_outside_snapshot_ = metrics_.counter("rerun_outside_snapshot");
  }
  snapshot_reruns_->Increment();
  metrics_.Increment("invalidated_speculative");
  // The speculation read a stale cache: drop it, and its buffer, whether or
  // not it has ended.
  if (state->buffer != nullptr) {
    state->buffer->Discard();
    state->buffer.reset();
  }
  state->speculation = Speculation::kDropped;
  // (8b) The snapshot repairs the cache while (9b) f reruns on it. The
  // rerun reads the snapshot, not the cache: a push that lands meanwhile
  // must not mix a newer copy of one key into the snapshot of the others.
  const std::vector<FreshItem>& snapshot = state->response.fresh_items;
  RepairCache(snapshot);
  SnapshotView view(snapshot);
  const AnalyzedFunction* fn = registry_->Find(state->function);
  const ExecEnv env{state->exec_id, externals_};
  ExecResult exec = interpreter_->Execute(fn->original, state->inputs, &view,
                                          config_.server.exec_limits, &env);
  if (!view.Covers(exec)) {
    // On the primary's values f reads a key f^rw did not predict (a
    // dependent read's index changed), or writes: the snapshot cannot
    // answer it, and the primary can.
    rerun_outside_snapshot_->Increment();
    InvokeDirect(state);
    return;
  }
  assert(exec.ok() && "rerun on the snapshot failed");
  state->phase.Move(RequestPhase::kCommitting);
  AdvanceSessionFloor(state, snapshot);
  state->trace.rerun = true;
  sim_->Schedule(exec.elapsed, [this, state, result = std::move(exec.return_value)]() mutable {
    if (DeadRequest(*state)) {
      return;
    }
    Reply(state, std::move(result));
  });
}

void Runtime::InvokeDirect(std::shared_ptr<RequestState> state) {
  if (state->phase.Is(RequestPhase::kDone)) {
    return;  // The deadline watchdog answered before the request started.
  }
  state->phase.Move(RequestPhase::kDirect);
  state->direct_request.exec_id = state->exec_id;
  state->direct_request.origin = region_;
  state->direct_request.function = state->function;
  state->direct_request.inputs = state->inputs;
  state->direct_request.deadline = state->deadline;
  state->direct_request.session_id = state->session != nullptr ? state->session->id : 0;
  state->direct_request.ack = AckFor(*state);
  state->trace.direct = true;
  state->direct_request_size = wire_scratch_.SizeOf(state->direct_request);
  SendAttempt(state, AttemptPath::kDirect);
}

void Runtime::Reply(const std::shared_ptr<RequestState>& state, Value result) {
  // When a preview went out but validation never confirmed the speculation
  // (abort with backup result, or degrade to the direct path), the final is
  // kAborted: still authoritative — `result` is what actually executed — but
  // the tentative answer the client may have acted on is not it.
  const bool confirmed = state->trace.validated && !state->trace.direct;
  const RequestStatus status = state->preview_fired && !confirmed ? RequestStatus::kAborted
                                                                  : RequestStatus::kOk;
  if (status == RequestStatus::kAborted) {
    metrics_.Increment("preview_aborted");
  } else if (state->preview_fired) {
    metrics_.Increment("preview_confirmed");
  }
  FinishReply(state, Outcome{status, std::move(result), 0});
}

void Runtime::FinishReply(const std::shared_ptr<RequestState>& state, Outcome outcome) {
  // The client is answered exactly once: a second completion is the illegal
  // edge done -> done and aborts.
  state->phase.Move(RequestPhase::kDone);
  open_ids_.erase(state->exec_id);  // Final: the next request acknowledges it.
  if (state->deadline_event != kInvalidEventId) {
    sim_->Cancel(state->deadline_event);
    state->deadline_event = kInvalidEventId;
  }
  metrics_.Increment("replies");
  RequestTrace::StampOnce(&state->trace.replied, sim_->Now());
  if (outcome.status == RequestStatus::kOk || outcome.status == RequestStatus::kAborted) {
    // Only executed results feed the end-to-end histogram: a rejection
    // completes in a fraction of a real request's latency and would drag the
    // percentiles down exactly when they matter most (rejected/deadline
    // endings have their own counters). kAborted finals executed in full —
    // they belong in the distribution.
    latency_hist_->Record(state->trace.Total());
  }
  if (state->trace_enabled) {
    if (tracer_ != nullptr) {
      tracer_->Record(state->trace);
    }
    AppendSpans(state->trace, spans_);
  }
  OutcomeFn done = std::move(state->done);
  done(std::move(outcome));
}

}  // namespace radical
