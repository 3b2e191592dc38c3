#include "src/lvi/lvi_server.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <utility>

#include "src/analysis/analyzer.h"
#include "src/common/logging.h"
#include "src/kv/write_buffer.h"

namespace radical {

namespace {

// The simulator ticks in microseconds, so one request per tick is the
// highest capacity the M/D/1 model can represent; anything above it used to
// truncate service_time to 0 and silently model an *unlimited* server.
constexpr uint64_t kMaxServingCapacityRps = 1'000'000;

// Replicated deployments only (§5.6): the cost of writing and updating a
// function invocation's idempotency key, which the paper measures at 3 ms.
constexpr SimDuration kIdempotencyWrite = Millis(3);

// The locks an LVI request takes: a write lock per write item, a read lock
// per other item.
RwSet LocksOf(const LviRequest& request) {
  RwSet locks;
  for (const LviItem& item : request.items) {
    (item.mode == LockMode::kWrite ? locks.writes : locks.reads).insert(item.key);
  }
  return locks;
}

// Whether `locks` cover everything an execution touched: a lock of either
// mode on each key it read, a write lock on each key it wrote.
bool LocksCover(const RwSet& locks, const ExecResult& exec) {
  for (const Key& key : exec.writes) {
    if (locks.writes.count(key) == 0) {
      return false;
    }
  }
  for (const Key& key : exec.reads) {
    if (locks.writes.count(key) == 0 && locks.reads.count(key) == 0) {
      return false;
    }
  }
  return true;
}

// Answers and frees `exec_id`'s in-flight respond slot in `slots`, if any.
// Reject and shed verdicts answer the LVI slot this way, uncached.
template <typename Respond, typename Response>
void AnswerSlot(std::unordered_map<ExecutionId, Respond>& slots, ExecutionId exec_id,
                Response response) {
  const auto it = slots.find(exec_id);
  if (it == slots.end()) {
    return;
  }
  Respond respond = std::move(it->second);
  slots.erase(it);
  if (respond) {
    respond(std::move(response));
  }
}

}  // namespace

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kOverloaded:
      return "overloaded";
    case ResponseStatus::kShed:
      return "shed";
  }
  return "?";
}

LviServer::LviServer(Simulator* sim, VersionedStore* store, const FunctionRegistry* registry,
                     const Interpreter* interpreter, LockService* locks, LviServerOptions options,
                     ExternalServiceRegistry* externals)
    : sim_(sim),
      store_(store),
      registry_(registry),
      interpreter_(interpreter),
      locks_(locks),
      options_(options),
      externals_(externals),
      router_(options.shards),
      metrics_(&sim->metrics(), sim->metrics().UniqueScopeName("lvi_server")),
      busy_until_(static_cast<size_t>(options.shards), 0) {
  metrics_.AddCallbackGauge("size.lvi_replies",
                            [this] { return static_cast<int64_t>(lvi_replies_.size()); });
  metrics_.AddCallbackGauge("size.direct_replies",
                            [this] { return static_cast<int64_t>(direct_replies_.size()); });
  metrics_.AddCallbackGauge("size.applied", [this] { return static_cast<int64_t>(applied_.size()); });
  metrics_.AddCallbackGauge("size.executions",
                            [this] { return static_cast<int64_t>(executions_.size()); });
  metrics_.AddCallbackGauge("size.parked", [this] { return static_cast<int64_t>(parked_.size()); });
  if (options_.serving_capacity_rps > kMaxServingCapacityRps) {
    RLOG(kWarn) << "lvi_server: serving_capacity_rps=" << options_.serving_capacity_rps
                << " exceeds the simulator tick rate (" << kMaxServingCapacityRps
                << "/s); clamping to the maximum modelable capacity";
    options_.serving_capacity_rps = kMaxServingCapacityRps;
  }
  if (options_.admission_queue_limit > 0 && options_.serving_capacity_rps == 0) {
    RLOG(kWarn) << "lvi_server: admission_queue_limit=" << options_.admission_queue_limit
                << " has no effect without serving_capacity_rps (capacity model off)";
  }
  if (options_.shards > 1) {
    // Per-shard scopes exist only in sharded configurations, so the default
    // server registers exactly the instruments it always did.
    shard_metrics_.reserve(static_cast<size_t>(options_.shards));
    for (int i = 0; i < options_.shards; ++i) {
      shard_metrics_.emplace_back(&sim->metrics(), metrics_.prefix() + ".shard" + std::to_string(i));
    }
  }
}

int LviServer::HomeShard(const LviRequest& request) const {
  return request.items.empty() ? 0 : router_.ShardOf(request.items.front().key);
}

void LviServer::BumpShard(int shard, const std::string& name) {
  if (!shard_metrics_.empty()) {
    shard_metrics_[static_cast<size_t>(shard)].Increment(name);
  }
}

void LviServer::EmitSpan(const char* name, ExecutionId exec_id, SimTime start) {
  if (spans_ == nullptr) {
    return;
  }
  spans_->Add(obs::Span{name, "lvi_server", obs::SpanTrack::kServer, exec_id, start,
                        sim_->Now() - start, {}});
}

void LviServer::Crash() {
  alive_ = false;
  ++epoch_;
  // Timers are in-memory: they die with the process. Locks (disk) and
  // intents + execution records (primary store) survive in executions_, as
  // do the reply caches (they live with the idempotency keys in the primary
  // store). The in-flight respond slots are connections: they reset.
  for (auto& [exec_id, state] : executions_) {
    (void)exec_id;
    if (state.phase.Is(IntentPhase::kApplying)) {
      continue;  // Its writes landed; Recover() releases its locks.
    }
    if (state.intent_timer != kInvalidEventId) {
      sim_->Cancel(state.intent_timer);
      state.intent_timer = kInvalidEventId;
    }
    // armed -> orphaned (or the declared orphaned self-loop on a double
    // crash): the timer is gone, the durable intent waits for Recover().
    state.phase.Move(IntentPhase::kOrphaned);
  }
  inflight_lvi_.clear();
  inflight_direct_.clear();
  // Parked followups are in memory too: their pipelines died with the crash.
  // A retried request arms an intent, and the timer re-executes it.
  if (!parked_.empty()) {
    metrics_.Increment("followup_dropped_invalid", parked_.size());
    parked_.clear();
  }
}

void LviServer::Recover() {
  assert(!alive_);
  alive_ = true;
  ++epoch_;
  // The capacity model's busy periods belong to the previous life.
  std::fill(busy_until_.begin(), busy_until_.end(), 0);
  metrics_.Increment("recoveries");
  // Intents the followup won, whose lock release died with the crash, still
  // hold locks: retire them (their writes landed when the followup arrived,
  // so nothing is lost).
  std::vector<ExecutionId> applied;
  for (const auto& [exec_id, state] : executions_) {
    if (state.phase.Is(IntentPhase::kApplying)) {
      applied.push_back(exec_id);
    }
  }
  std::sort(applied.begin(), applied.end());  // Deterministic order.
  for (const ExecutionId id : applied) {
    RetireIntent(id);
    metrics_.Increment("recover_cleanup");
  }
  // Re-arm a timer for every intent still unresolved: their followups may
  // have been lost while the server was down, and deterministic re-execution
  // is how such writes reach the primary (§3.4). A re-execution the crash
  // cut off before its writes landed is armed again and runs again.
  for (auto& [exec_id, state] : executions_) {
    const ExecutionId id = exec_id;
    state.phase.Move(IntentPhase::kArmed);  // orphaned -> armed.
    state.intent_timer =
        sim_->Schedule(options_.intent_timeout, [this, id] { ResolveIntentByReExecution(id); });
  }
}

SimDuration LviServer::ServiceTime() const {
  // Ceiling division: a capacity above 1 req per tick still costs at least
  // one tick per request. Plain `Seconds(1) / rps` truncated to 0 for any
  // rps > 1e6, modeling an unlimited server (the constructor additionally
  // clamps such capacities loudly).
  const SimDuration rps = static_cast<SimDuration>(options_.serving_capacity_rps);
  return (Seconds(1) + rps - 1) / rps;
}

size_t LviServer::QueueDepth(int shard) const {
  if (options_.serving_capacity_rps == 0) {
    return 0;
  }
  const SimTime busy_until = busy_until_[static_cast<size_t>(shard)];
  const SimDuration backlog = busy_until - sim_->Now();
  if (backlog <= 0) {
    return 0;
  }
  const SimDuration service_time = ServiceTime();
  return static_cast<size_t>((backlog + service_time - 1) / service_time);
}

void LviServer::NoteQueueDepth(int shard) {
  const int64_t depth = static_cast<int64_t>(QueueDepth(shard));
  metrics_.gauge("queue_depth")->Set(depth);
  metrics_.gauge("queue_depth_peak")->SetMax(depth);
  if (!shard_metrics_.empty()) {
    shard_metrics_[static_cast<size_t>(shard)].gauge("queue_depth_peak")->SetMax(depth);
  }
}

SimDuration LviServer::AdmissionDelay(int shard) {
  if (options_.serving_capacity_rps == 0) {
    return options_.process_delay;
  }
  // Deterministic service time 1/capacity; arrivals queue behind their home
  // shard's busy period (M/D/1 with the workload's arrival process). Each
  // shard serves at the full capacity, so N shards are an N-fold scale-out.
  const SimDuration service_time = ServiceTime();
  SimTime& busy_until = busy_until_[static_cast<size_t>(shard)];
  const SimTime start = std::max(sim_->Now(), busy_until);
  busy_until = start + service_time;
  const SimDuration queueing = start - sim_->Now();
  if (queueing > 0) {
    metrics_.Increment("queued_arrivals");
    BumpShard(shard, "queued_arrivals");
  }
  NoteQueueDepth(shard);
  return queueing + service_time + options_.process_delay;
}

ResponseStatus LviServer::AdmissionVerdict(int shard, SimTime deadline, SimDuration* retry_after) {
  SimDuration drain = 0;
  if (options_.serving_capacity_rps > 0) {
    const SimTime busy_until = busy_until_[static_cast<size_t>(shard)];
    drain = std::max<SimDuration>(busy_until - sim_->Now(), 0);
    if (options_.admission_queue_limit > 0 && QueueDepth(shard) >= options_.admission_queue_limit) {
      if (retry_after != nullptr) {
        *retry_after = drain;
      }
      return ResponseStatus::kOverloaded;
    }
  }
  if (deadline != 0 &&
      sim_->Now() + drain + (options_.serving_capacity_rps > 0 ? ServiceTime() : 0) +
              options_.process_delay >
          deadline) {
    // Even if admitted right now, the reply would leave after the client's
    // deadline: shed instead of burning a service slot on dead work.
    if (retry_after != nullptr) {
      *retry_after = drain;
    }
    return ResponseStatus::kShed;
  }
  return ResponseStatus::kOk;
}

template <typename Respond, typename Response>
void LviServer::AnswerAfterProcessing(Respond respond, Response response) {
  const uint64_t epoch = epoch_;
  sim_->Schedule(options_.process_delay, [this, epoch, respond = std::move(respond),
                                          response = std::move(response)]() mutable {
    if (!StillAlive(epoch)) {
      metrics_.Increment("stale_epoch_dropped");
      return;
    }
    respond(std::move(response));
  });
}

void LviServer::RejectLvi(ExecutionId exec_id, RespondFn respond, ResponseStatus status,
                          SimDuration retry_after) {
  LviResponse response;
  response.exec_id = exec_id;
  response.validated = false;
  response.status = status;
  response.retry_after = retry_after;
  // Rejection is the cheap path by design: parse + verdict cost only, no
  // admission slot consumed, nothing cached.
  AnswerAfterProcessing(std::move(respond), std::move(response));
}

void LviServer::ShedMidPipeline(const LviRequest& request, const char* stage) {
  metrics_.Increment("shed_total");
  metrics_.Increment(std::string("shed_") + stage);
  BumpShard(HomeShard(request), "shed_total");
  locks_->ReleaseAll(request.exec_id);
  LviResponse response;
  response.exec_id = request.exec_id;
  response.validated = false;
  response.status = ResponseStatus::kShed;
  AnswerLvi(request.exec_id, std::move(response));
}

std::vector<FreshItem> LviServer::FreshItems(std::vector<Key> keys) const {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<FreshItem> items;
  items.reserve(keys.size());
  for (Key& key : keys) {
    std::optional<Item> item = store_->Peek(key);
    if (item.has_value()) {
      items.push_back(FreshItem{std::move(key), std::move(item->value), item->version});
    }
  }
  return items;
}

void LviServer::RespondLvi(const LviRequest& request, LviResponse response) {
  lvi_replies_.Put(OriginOf(request), request.exec_id, response);
  AnswerLvi(request.exec_id, std::move(response));
}

void LviServer::AnswerLvi(ExecutionId exec_id, LviResponse response) {
  DropParked(exec_id);
  AnswerSlot(inflight_lvi_, exec_id, std::move(response));
}

void LviServer::DropParked(ExecutionId exec_id) {
  if (parked_.erase(exec_id) > 0) {
    metrics_.Increment("followup_dropped_invalid");
  }
}

bool LviServer::Acknowledge(ExecutionId exec_id, Origin origin, ExecutionId below) {
  if (origin == kNoOrigin) {
    return true;
  }
  ExecutionId& floor = acked_below_[origin];
  if (below > floor) {
    floor = below;
    lvi_replies_.EraseBelow(origin, floor);
    direct_replies_.EraseBelow(origin, floor);
    applied_.EraseBelow(origin, floor);
  }
  if (exec_id < floor) {
    // Its origin has its final answer: a retry reordered behind the
    // acknowledgement, whose reply and idempotency key are gone. Running it
    // could apply a writer twice.
    metrics_.Increment("at_most_once_refused");
    return false;
  }
  return true;
}

void LviServer::HandleLviRequest(LviRequest request, RespondFn respond) {
  if (!alive_) {
    metrics_.Increment("dropped_while_down");
    return;
  }
  const ExecutionId exec_id = request.exec_id;
  if (!Acknowledge(exec_id, OriginOf(request), request.ack.below)) {
    return;
  }
  // Duplicate of a request whose pipeline is still running (the response, or
  // the original request's slow leg, is in flight): park the fresh respond
  // callback; exactly one reply fires when the pipeline completes.
  const auto inf = inflight_lvi_.find(exec_id);
  if (inf != inflight_lvi_.end()) {
    metrics_.Increment("duplicate_in_flight");
    inf->second = std::move(respond);
    return;
  }
  // Duplicate of a request already answered (the response was lost): replay
  // the cached reply. If no intent record exists, any locks the execution
  // still holds belong to a pipeline that died in a crash — reclaim them.
  const LviResponse* hit = lvi_replies_.Find(exec_id);
  if (hit != nullptr) {
    metrics_.Increment("duplicate_replayed");
    if (PhaseOf(exec_id) == IntentPhase::kFinished) {
      locks_->ReleaseAll(exec_id);
    }
    // Cache hits are a lookup, not an execution: answer after the parse/
    // dispatch cost only. Charging a full AdmissionDelay service slot here
    // (as this path used to) let duplicate retries consume real capacity
    // and amplify the very overload that caused them.
    AnswerAfterProcessing(std::move(respond), *hit);
    return;
  }
  const int home = HomeShard(request);
  SimDuration retry_after = 0;
  const ResponseStatus verdict = AdmissionVerdict(home, request.deadline, &retry_after);
  if (verdict != ResponseStatus::kOk) {
    metrics_.Increment(verdict == ResponseStatus::kOverloaded ? "rejected_overload"
                                                              : "shed_admission");
    if (verdict == ResponseStatus::kShed) {
      metrics_.Increment("shed_total");
    }
    BumpShard(home, verdict == ResponseStatus::kOverloaded ? "rejected_overload" : "shed_total");
    RejectLvi(exec_id, std::move(respond), verdict, retry_after);
    return;
  }
  metrics_.Increment("lvi_requests");
  BumpShard(home, "lvi_requests");
  inflight_lvi_[exec_id] = std::move(respond);
  const uint64_t epoch = epoch_;
  const SimTime arrival = sim_->Now();
  sim_->Schedule(AdmissionDelay(home), [this, epoch, arrival,
                                        request = std::move(request)]() mutable {
    if (!StillAlive(epoch)) {
      metrics_.Increment("stale_epoch_dropped");
      return;
    }
    EmitSpan("server.admission", request.exec_id, arrival);
    const SimTime lock_start = sim_->Now();
    // (4) Acquire a read or write lock per item, in (shard, key) order. A
    // retried execution that already holds some or all of its locks (they
    // survive crashes on disk, §4) is granted the held ones immediately; a
    // duplicate acquisition still queued merges into the original.
    const ExecutionId id = request.exec_id;
    const RwSet locks = LocksOf(request);
    AcquireThen(id, locks, [this, lock_start, request = std::move(request)]() mutable {
      EmitSpan("server.lock_wait", request.exec_id, lock_start);
      Validate(std::move(request));
    });
  });
}

void LviServer::Validate(LviRequest request) {
  // Deadline re-check at the validation stage: admission's projection can be
  // overtaken by lock waits, so work whose deadline has already passed is
  // dropped here rather than carried through the version read, the intent
  // write, and a backup execution nobody will read.
  if (request.deadline != 0 && sim_->Now() >= request.deadline) {
    ShedMidPipeline(request, "validation");
    return;
  }
  if (request.session_id != 0) {
    metrics_.Increment("session_requests");
  }
  // (5) One batch read round gets the primary's value and version of each
  // of the request's items, under their locks; primary[i] is items[i]'s.
  // Validation compares the versions; a failed read-only request is
  // answered with the values.
  std::vector<Key> keys;
  keys.reserve(request.items.size());
  for (const LviItem& item : request.items) {
    keys.push_back(item.key);
  }
  SimDuration read_latency = 0;
  std::vector<Item> primary_items = store_->BatchGet(keys, &read_latency);
  const uint64_t epoch = epoch_;
  const SimTime validate_start = sim_->Now();
  sim_->Schedule(read_latency, [this, epoch, validate_start, request = std::move(request),
                                primary_items = std::move(primary_items)]() mutable {
    if (!StillAlive(epoch)) {
      metrics_.Increment("stale_epoch_dropped");
      return;
    }
    // The stale items, and a writer's pinned versions. Only what f reads is
    // compared: a blind write cannot change f's result or its writes, so it
    // is pinned at the primary's version whatever the cache held.
    std::vector<size_t> stale;
    Pins pins;
    for (size_t i = 0; i < request.items.size(); ++i) {
      const LviItem& item = request.items[i];
      const Version primary = primary_items[i].version;
      if (item.mode == LockMode::kWrite) {
        pins.keys.push_back(item.key);
        pins.versions.push_back(primary);
      }
      if (item.blind) {
        continue;
      }
      if (item.cached_version != primary) {
        stale.push_back(i);
      } else if (item.session_floor > 0 && primary < item.session_floor) {
        // Validating here would hand the session an older state than it has
        // already observed (monotonic-read violation). Floor 0 means the
        // session never saw the key, so absent items (version -1) pass.
        // Defensive: the runtime upgrades too-stale cache reads before
        // speculating, so this only fires if the primary itself regressed
        // below the session's floor.
        metrics_.Increment("session_floor_stale");
        stale.push_back(i);
      }
    }
    EmitSpan("server.validate", request.exec_id, validate_start);
    if (!stale.empty()) {
      OnValidationFailure(std::move(request), stale, std::move(primary_items));
      return;
    }
    metrics_.Increment("validate_success");
    BumpShard(HomeShard(request), "validate_success");
    if (pins.keys.empty()) {
      // Read-only: validation is the linearization point; nothing further
      // will arrive for this execution, so the read locks release now.
      const ExecutionId exec_id = request.exec_id;
      locks_->ReleaseAll(exec_id);
      LviResponse response;
      response.exec_id = exec_id;
      response.validated = true;
      RespondLvi(request, std::move(response));
      return;
    }
    // (6a) One intent-write round (one primary-store write; plus the
    // idempotency key in the replicated configuration) creates the intent;
    // it then starts its timer and replies. Locks stay held until the
    // followup or re-execution. The round takes effect when its latency
    // elapses, so a crash mid-round leaves no durable trace.
    sim_->Schedule(IntentWriteLatency(), [this, epoch, request = std::move(request),
                                          pins = std::move(pins)]() mutable {
      if (!StillAlive(epoch)) {
        metrics_.Increment("stale_epoch_dropped");
        return;
      }
      CommitIntent(std::move(request), std::move(pins));
    });
  });
}

SimDuration LviServer::IntentWriteLatency() const {
  return store_->options().write_latency + (locks_->replicated() ? kIdempotencyWrite : 0);
}

void LviServer::CommitIntent(LviRequest request, Pins pins) {
  const ExecutionId exec_id = request.exec_id;
  EmitSpan("server.intent_write", exec_id, sim_->Now() - IntentWriteLatency());
  LviResponse response;
  response.exec_id = exec_id;
  response.validated = true;
  if (executions_.count(exec_id) > 0) {
    // A retried request of an execution whose intent already exists (a
    // replay carrying no acknowledgement, after its origin acknowledged it
    // and its cached reply was dropped): the existing intent — with its timer
    // and execution record — is authoritative; just re-answer, with the
    // blind writes repinned at the record's versions.
    metrics_.Increment("retry_intent_hit");
    response.fresh_items = Repinned(request, executions_.at(exec_id).pins);
    RespondLvi(request, std::move(response));
    return;
  }
  response.fresh_items = Repinned(request, pins);
  metrics_.Increment("blind_repinned", response.fresh_items.size());
  const auto parked = parked_.find(exec_id);
  if (parked != parked_.end()) {
    // The followup is already here: this round's write is its writes, not
    // an intent. They land at the validated versions, the locks release,
    // and no timer is armed.
    const WriteFollowup followup = std::move(parked->second);
    parked_.erase(parked);
    ApplyFollowup(request, followup, pins, nullptr);
    locks_->ReleaseAll(exec_id);
    RespondLvi(request, std::move(response));
    return;
  }
  BumpShard(HomeShard(request), "intents_created");
  ExecState state;
  state.request = std::move(request);
  state.pins = std::move(pins);
  state.intent_timer =
      sim_->Schedule(options_.intent_timeout,
                     [this, exec_id] { ResolveIntentByReExecution(exec_id); });
  const auto created = executions_.emplace(exec_id, std::move(state)).first;
  RespondLvi(created->second.request, std::move(response));
}

void LviServer::OnValidationFailure(LviRequest request, const std::vector<size_t>& stale_indices,
                                    std::vector<Item> primary_items) {
  metrics_.Increment("validate_fail");
  BumpShard(HomeShard(request), "validate_fail");
  // The speculation an early followup carries did not validate.
  DropParked(request.exec_id);
  if (std::none_of(request.items.begin(), request.items.end(),
                   [](const LviItem& item) { return item.mode == LockMode::kWrite; })) {
    // (6b) A read-only request: the batch read is its read point, as for a
    // validated one, so the read locks release now and (7b) the reply
    // carries that snapshot; the runtime reruns f on it. f is
    // deterministic, so its result is fixed here.
    const ExecutionId exec_id = request.exec_id;
    locks_->ReleaseAll(exec_id);
    LviResponse response;
    response.exec_id = exec_id;
    response.snapshot = true;
    response.fresh_items.reserve(request.items.size());
    for (size_t i = 0; i < request.items.size(); ++i) {
      response.fresh_items.push_back(FreshItem{std::move(request.items[i].key),
                                               std::move(primary_items[i].value),
                                               primary_items[i].version});
    }
    RespondLvi(request, std::move(response));
    return;
  }
  // (6b) Run the backup copy of the writer against the primary, under the
  // locks already held: its writes need them through its compute, and
  // must not hold them across a WAN round trip. (7b) Its reply carries the
  // result and repairs.
  metrics_.Increment("backup_exec");
  PrimaryRun run(PrimaryRun::kBackup, request.exec_id, OriginOf(request),
                 registry_->Find(request.function), std::move(request.inputs));
  assert(run.fn != nullptr && "function not registered at the near-storage location");
  for (const size_t i : stale_indices) {
    run.stale_keys.push_back(request.items[i].key);
  }
  run.locks = LocksOf(request);
  RunAtPrimary(std::move(run));
}

void LviServer::HandleFollowup(WriteFollowup followup) {
  if (!alive_) {
    // The followup went nowhere; the intent timer, re-armed by Recover(),
    // covers it.
    metrics_.Increment("dropped_while_down");
    return;
  }
  metrics_.Increment("followups_received");
  const auto known = executions_.find(followup.exec_id);
  if (known == executions_.end() && inflight_lvi_.count(followup.exec_id) == 0) {
    // No intent to apply against and no pipeline to park under (the intent
    // already resolved, or the request was lost or rejected): discard at the
    // door, without taking a service slot.
    metrics_.Increment("followup_late");
    return;
  }
  // The followup is admitted on its execution's home shard; before its
  // intent exists, on the shard of its first write.
  int shard = 0;
  if (known != executions_.end()) {
    shard = HomeShard(known->second.request);
  } else if (!followup.writes.empty()) {
    shard = router_.ShardOf(followup.writes.front().key);
  }
  const uint64_t epoch = epoch_;
  sim_->Schedule(AdmissionDelay(shard), [this, epoch, followup = std::move(followup)]() mutable {
    if (!StillAlive(epoch)) {
      metrics_.Increment("stale_epoch_dropped");
      return;
    }
    const ExecutionId exec_id = followup.exec_id;
    const ExecState* state = ClaimIntent(exec_id, IntentPhase::kApplying);
    if (state == nullptr) {
      if (executions_.count(exec_id) == 0 && inflight_lvi_.count(exec_id) > 0 &&
          parked_.emplace(exec_id, std::move(followup)).second) {
        // Sent when the speculation ended, it overtook its validation: wait
        // with the execution for the pipeline's verdict (CommitIntent).
        metrics_.Increment("followup_parked");
        return;
      }
      // The intent was already handled (re-execution beat us, or this is a
      // duplicate), or no pipeline of this execution is running to park it
      // under: discard (§3.6, "validation succeeds but the followup is
      // late").
      metrics_.Increment("followup_late");
      return;
    }
    // The followup won the race.
    SimDuration apply_latency = 0;
    ApplyFollowup(state->request, followup, state->pins, &apply_latency);
    sim_->Schedule(apply_latency, [this, epoch, exec_id] {
      if (!StillAlive(epoch)) {
        // The writes are durable; the record stays applying and recovery
        // releases its locks.
        metrics_.Increment("stale_epoch_dropped");
        return;
      }
      // (10) Release the locks and retire the intent.
      RetireIntent(exec_id);
    });
  });
}

void LviServer::ApplyFollowup(const LviRequest& request, const WriteFollowup& followup,
                              const Pins& pins, SimDuration* latency) {
  metrics_.Increment("followup_applied");
  BumpShard(HomeShard(request), "followup_applied");
  // (9) Apply the updates under the versions pinned at validation; the
  // write locks guarantee nothing moved underneath. The request's outcome
  // is filed as a direct reply: a failover replay carries its id on the
  // direct path, and must find f's result here rather than run f again.
  const Origin origin = OriginOf(request);
  DirectResponse reply;
  reply.exec_id = request.exec_id;
  reply.result = followup.result;
  reply.fresh_items = Commit(request.exec_id, origin, followup.writes, pins, latency);
  direct_replies_.Put(origin, request.exec_id, std::move(reply));
}

LviServer::ExecState* LviServer::ClaimIntent(ExecutionId exec_id, IntentPhase winner) {
  const auto it = executions_.find(exec_id);
  if (it == executions_.end() || !it->second.phase.Is(IntentPhase::kArmed)) {
    return nullptr;
  }
  ExecState& state = it->second;
  state.phase.Move(winner);
  if (state.intent_timer != kInvalidEventId) {
    sim_->Cancel(state.intent_timer);
    state.intent_timer = kInvalidEventId;
  }
  return &state;
}

void LviServer::ResolveIntentByReExecution(ExecutionId exec_id) {
  // The timer, or the direct fallback, against the followup. The execution
  // record stays in executions_ until the writes land, so a crash before
  // then re-arms the intent instead of losing them (Recover).
  const ExecState* state = ClaimIntent(exec_id, IntentPhase::kReExecuting);
  if (state == nullptr) {
    return;  // The followup won the race, or the server is down.
  }
  metrics_.Increment("reexecute");
  // Deterministic re-execution (§3.4): same inputs, and the locks held since
  // the LVI request guarantee the same storage state, so the writes are
  // identical to the speculative ones that never arrived. Same execution id
  // as the speculative run: external-service idempotency keys match, so
  // services replay instead of re-charging (§3.5). The result is recorded as
  // a direct reply: a client that gave up on the LVI path and degraded to
  // InvokeDirect replays this run instead of executing a second time.
  PrimaryRun run(PrimaryRun::kReExecution, exec_id, OriginOf(state->request),
                 registry_->Find(state->request.function), state->request.inputs);
  assert(run.fn != nullptr);
  run.locks = LocksOf(state->request);
  RunAtPrimary(std::move(run));
}

void LviServer::HandleDirect(DirectRequest request, DirectRespondFn respond) {
  if (!alive_) {
    metrics_.Increment("dropped_while_down");
    return;
  }
  const ExecutionId exec_id = request.exec_id;
  if (!Acknowledge(exec_id, OriginOf(request), request.ack.below)) {
    return;
  }
  const auto inf = inflight_direct_.find(exec_id);
  if (inf != inflight_direct_.end()) {
    metrics_.Increment("duplicate_in_flight");
    inf->second = std::move(respond);
    return;
  }
  const DirectResponse* hit = direct_replies_.Find(exec_id);
  if (hit != nullptr) {
    metrics_.Increment("duplicate_replayed");
    AnswerAfterProcessing(std::move(respond), *hit);
    return;
  }
  // Degraded-mode fallback of an execution whose LVI attempt got as far as a
  // write intent: the intent is authoritative. Resolve it by deterministic
  // re-execution now — never run the function a second time next to it.
  // The parked respond slot is answered when the re-execution finishes.
  const IntentPhase phase = PhaseOf(exec_id);
  if (phase == IntentPhase::kArmed || phase == IntentPhase::kReExecuting) {
    metrics_.Increment("direct_resolved_intent");
    const uint64_t epoch = epoch_;
    inflight_direct_[exec_id] = std::move(respond);
    sim_->Schedule(options_.process_delay, [this, epoch, exec_id] {
      if (!StillAlive(epoch)) {
        metrics_.Increment("stale_epoch_dropped");
        return;
      }
      const IntentPhase now = PhaseOf(exec_id);
      if (now == IntentPhase::kArmed) {
        ResolveIntentByReExecution(exec_id);
        return;
      }
      if (now == IntentPhase::kReExecuting) {
        return;  // Already re-executing (the timer won the race).
      }
      // The re-execution finished between admission and now: its reply is
      // in the direct cache.
      const DirectResponse* done = direct_replies_.Find(exec_id);
      if (done != nullptr) {
        AnswerSlot(inflight_direct_, exec_id, *done);
        return;
      }
      // Unreachable in practice (the cache outlives the race window); drop
      // the slot so a retry takes the fresh path.
      metrics_.Increment("direct_intent_race_dropped");
      inflight_direct_.erase(exec_id);
    });
    return;
  }
  // Fallback of an execution whose LVI attempt is still in flight (the
  // client timed out, the server did not): let the pipeline finish, then
  // look again — by then the exec has a cached reply or a pending intent.
  if (inflight_lvi_.count(exec_id) > 0) {
    metrics_.Increment("direct_deferred_inflight");
    const uint64_t epoch = epoch_;
    sim_->Schedule(options_.process_delay * 4,
                   [this, epoch, request = std::move(request),
                    respond = std::move(respond)]() mutable {
                     if (!StillAlive(epoch)) {
                       metrics_.Increment("stale_epoch_dropped");
                       return;
                     }
                     HandleDirect(std::move(request), std::move(respond));
                   });
    return;
  }
  // Fallback of an execution whose LVI attempt failed validation: the backup
  // execution already ran; adapt its cached reply instead of re-executing.
  // A snapshot reply ran nothing: a read-only function runs fresh below.
  const LviResponse* lvi_hit = lvi_replies_.Find(exec_id);
  if (lvi_hit != nullptr && !lvi_hit->validated && !lvi_hit->snapshot) {
    metrics_.Increment("direct_from_lvi_cache");
    DirectResponse response;
    response.exec_id = exec_id;
    response.result = lvi_hit->backup_result;
    response.fresh_items = lvi_hit->fresh_items;
    AnswerAfterProcessing(std::move(respond), std::move(response));
    return;
  }
  if (request.deadline != 0 && sim_->Now() >= request.deadline) {
    // Fresh direct work whose deadline has already passed: shed at the door
    // (pending-intent and cached-reply paths above still run — they resolve
    // durable state, not client-visible work).
    metrics_.Increment("shed_total");
    metrics_.Increment("shed_direct");
    DirectResponse response;
    response.exec_id = exec_id;
    response.status = ResponseStatus::kShed;
    AnswerAfterProcessing(std::move(respond), std::move(response));
    return;
  }
  metrics_.Increment("direct_requests");
  const AnalyzedFunction* fn = registry_->Find(request.function);
  assert(fn != nullptr && "function not registered at the near-storage location");
  inflight_direct_[exec_id] = std::move(respond);
  const uint64_t epoch = epoch_;
  sim_->Schedule(options_.process_delay, [this, epoch, fn, request = std::move(request)]() mutable {
    if (!StillAlive(epoch)) {
      metrics_.Increment("stale_epoch_dropped");
      return;
    }
    PrimaryRun run(PrimaryRun::kDirect, request.exec_id, OriginOf(request), fn,
                   std::move(request.inputs));
    // Lock the read/write set an analyzable function predicts against the
    // primary (the cost is folded into process_delay), so the run serializes
    // against pending write intents. An unanalyzable function, or a failed
    // prediction, starts with none: its first run finds what it touches.
    if (fn->analyzable) {
      RwPrediction prediction = PredictRwSet(*fn, run.inputs, store_, *interpreter_);
      if (prediction.ok()) {
        run.locks = std::move(prediction.rw);
      } else {
        metrics_.Increment("direct_predict_failed");
      }
    }
    const ExecutionId id = run.exec_id;
    const RwSet locks = run.locks;
    AcquireThen(id, locks,
                [this, run = std::move(run)]() mutable { RunAtPrimary(std::move(run)); });
  });
}

void LviServer::AcquireThen(ExecutionId exec_id, const RwSet& locks,
                            std::function<void()> granted) {
  std::vector<Key> keys = locks.AllKeysSorted();
  std::vector<LockMode> modes;
  modes.reserve(keys.size());
  for (const Key& key : keys) {
    modes.push_back(locks.ModeFor(key));
  }
  const uint64_t epoch = epoch_;
  locks_->AcquireAll(exec_id, std::move(keys), std::move(modes),
                     [this, epoch, granted = std::move(granted)] {
                       if (!StillAlive(epoch)) {
                         metrics_.Increment("stale_epoch_dropped");
                         return;
                       }
                       granted();
                     });
}

void LviServer::RunAtPrimary(PrimaryRun run) {
  const uint64_t epoch = epoch_;
  const SimTime start = sim_->Now();
  // (1) Invoke the function near storage.
  sim_->Schedule(options_.backup_invoke_overhead,
                 [this, epoch, start, run = std::make_shared<PrimaryRun>(std::move(run))] {
                   if (!StillAlive(epoch)) {
                     metrics_.Increment("stale_epoch_dropped");
                     return;
                   }
                   ReadPoint(run, start);
                 });
}

void LviServer::ReadPoint(std::shared_ptr<PrimaryRun> run, SimTime start) {
  // (2) The read point: the function reads the primary under the locks it
  // holds; its writes wait in a buffer.
  WriteBuffer buffer(store_);
  const ExecEnv env{run->exec_id, externals_};
  ExecResult exec = interpreter_->Execute(run->fn->original, run->inputs, &buffer,
                                          options_.exec_limits, &env);
  assert(exec.ok() && "execution at the primary failed");
  if (!LocksCover(run->locks, exec)) {
    // (3) The run touched a key its locks do not cover (its key set outgrew
    // the prediction, or nothing was predicted): release, lock the union of
    // the old set and what it touched, and run again at the grant. A
    // re-execution's locks were validated, so its intent's locks stay put.
    assert(run->kind != PrimaryRun::kReExecution && "re-execution outgrew validated locks");
    metrics_.Increment("primary_reruns");
    if (!run->locks.reads.empty() || !run->locks.writes.empty()) {
      locks_->ReleaseAll(run->exec_id);  // A run that predicted nothing holds none.
    }
    run->locks.reads.insert(exec.reads.begin(), exec.reads.end());
    run->locks.writes.insert(exec.writes.begin(), exec.writes.end());
    AcquireThen(run->exec_id, run->locks, [this, run, start] { ReadPoint(run, start); });
    return;
  }
  run->writes = buffer.Writes();
  // The run holds the write lock of each key it wrote until its commit, so
  // the versions read here are the ones its writes land on.
  for (const BufferedWrite& write : run->writes) {
    run->pins.keys.push_back(write.key);
    run->pins.versions.push_back(store_->VersionOf(write.key));
  }
  run->result = std::move(exec.return_value);
  // A buffered write costs what its write to the primary will.
  const SimDuration elapsed =
      exec.elapsed +
      store_->options().write_latency * static_cast<SimDuration>(exec.writes.size());
  // (4) A read-only run linearizes at this snapshot read and commits now. A
  // writer holds every lock through its compute, until its writes land (§3.6).
  const bool read_only = run->writes.empty();
  if (read_only) {
    FinishRun(*run);
  }
  const uint64_t epoch = epoch_;
  sim_->Schedule(elapsed, [this, epoch, start, read_only, run] {
    if (!StillAlive(epoch)) {
      metrics_.Increment("stale_epoch_dropped");
      return;
    }
    if (!read_only) {
      FinishRun(*run);
    }
    // FinishRun already cached the reply; only the slot is left to answer.
    if (run->kind == PrimaryRun::kBackup) {
      EmitSpan("server.backup_exec", run->exec_id, start);
      AnswerLvi(run->exec_id, std::move(run->lvi_reply));
    } else {
      AnswerSlot(inflight_direct_, run->exec_id, std::move(run->direct_reply));
    }
  });
}

void LviServer::FinishRun(PrimaryRun& run) {
  const ExecutionId exec_id = run.exec_id;
  std::vector<FreshItem> written = Commit(exec_id, run.origin, run.writes, run.pins, nullptr);
  // The reply is durable from here, with the writes: a retry replays it
  // instead of re-executing, even if this server life ends before it leaves.
  if (run.kind == PrimaryRun::kBackup) {
    run.lvi_reply.exec_id = exec_id;
    run.lvi_reply.validated = false;
    run.lvi_reply.backup_result = std::move(run.result);
    // Cache repairs: every stale item plus everything the execution wrote.
    std::vector<Key> repaired = std::move(run.stale_keys);
    for (const FreshItem& item : written) {
      repaired.push_back(item.key);
    }
    run.lvi_reply.fresh_items = FreshItems(std::move(repaired));
    lvi_replies_.Put(run.origin, exec_id, run.lvi_reply);
  } else {
    run.direct_reply.exec_id = exec_id;
    run.direct_reply.result = std::move(run.result);
    run.direct_reply.fresh_items = std::move(written);
    direct_replies_.Put(run.origin, exec_id, run.direct_reply);
  }
  if (run.kind == PrimaryRun::kReExecution) {
    RetireIntent(exec_id);  // The intent retires with its writes.
  } else {
    locks_->ReleaseAll(exec_id);
  }
}

std::vector<FreshItem> LviServer::Commit(ExecutionId exec_id, Origin origin,
                                         const std::vector<BufferedWrite>& writes,
                                         const Pins& pins, SimDuration* latency) {
  if (writes.empty()) {
    return {};
  }
  // The idempotency key (replicated deployments, §5.6) is recorded with the
  // writes: at most one execution of a request applies any.
  if (locks_->replicated() && !applied_.Put(origin, exec_id, true)) {
    metrics_.Increment("at_most_once_refused");
    return {};
  }
  std::vector<Key> written;
  written.reserve(writes.size());
  for (const BufferedWrite& write : writes) {
    store_->ApplyValidatedWrite(write.key, write.value, pins.Of(write.key), latency);
    written.push_back(write.key);
  }
  std::vector<FreshItem> items = FreshItems(std::move(written));
  if (push_) {
    push_(CachePush{items});
  }
  return items;
}

std::vector<FreshItem> LviServer::Repinned(const LviRequest& request, const Pins& pins) {
  std::vector<FreshItem> repinned;
  for (const LviItem& item : request.items) {
    if (item.blind) {
      const Version pinned = pins.Of(item.key);
      if (pinned != item.cached_version) {
        repinned.push_back(FreshItem{item.key, Value(), pinned});
      }
    }
  }
  return repinned;
}

Version LviServer::Pins::Of(const Key& key) const {
  const auto pos = std::lower_bound(keys.begin(), keys.end(), key);
  assert(pos != keys.end() && *pos == key && "write outside the locked write set");
  return versions[static_cast<size_t>(pos - keys.begin())];
}

IntentPhase LviServer::PhaseOf(ExecutionId exec_id) const {
  const auto it = executions_.find(exec_id);
  return it == executions_.end() ? IntentPhase::kFinished : it->second.phase.state();
}

void LviServer::RetireIntent(ExecutionId exec_id) {
  const auto it = executions_.find(exec_id);
  assert(it != executions_.end());
  it->second.phase.Move(IntentPhase::kFinished);
  executions_.erase(it);
  locks_->ReleaseAll(exec_id);
}

}  // namespace radical
