// LviServer: the near-storage server handling LVI requests (§3.2, Figure 3).
//
// One server runs alongside the primary copy of the data. For each LVI
// request it (4) acquires a read/write lock per item, (5) reads the
// primary's value and version of every item in one batch and validates the
// cache's versions of the items f reads (a blind write is pinned at the
// primary's version, not compared), then either (6a) sets up a write intent
// with a timer and replies success, or (6b) fails it: a read-only request
// releases its read locks and is answered with the primary's snapshot of
// its items, on which the runtime reruns f; a writer runs the backup copy
// of the function against the primary and replies with the result plus
// fresh values for the near-user cache. Write followups apply
// speculative writes and release locks; if a followup never arrives, the
// intent timer triggers deterministic re-execution (§3.4). Late followups
// lose the intent race and are discarded (§3.6, case 3). The runtime sends
// the followup as soon as its speculation ends, so it usually arrives while
// its LVI request is still in the pipeline: it is parked with the execution,
// and a successful validation commits it in the intent-write round instead
// of arming an intent; any other ending of the pipeline drops it.
//
// Every execution of a function at the primary — a writer's backup, the
// re-execution, and a direct request — runs through one funnel,
// RunAtPrimary, with one timing model: after the invoke overhead the
// function reads the primary under the locks it holds (the read point) and
// buffers its writes. A run that touched a key its locks do not cover locks
// what it touched and runs again (OLLP, as in Calvin). A covered read-only
// run linearizes at its snapshot read and releases its locks there; a
// writer holds every lock through its compute, applies, publishes and
// records its writes at the end of it, then releases (§3.6).
//
// Scaling (beyond the paper's singleton t3.2xlarge): the hot path shards.
// With `shards = N`, the lock table, serving capacity and metrics split into
// N independent key-range shards (ShardRouter hash-range partitions; the
// deployment pairs the server with a LockService of N lock groups built on
// the same router). Each request has a home shard — the shard of its first
// item — which owns its admission slot and its per-shard counters. Every shard
// validates each request on its own the moment its locks are granted, as the
// paper's singleton does: the singleton is the same code with one shard.
//
// The server is transport-agnostic: callers hand it a request plus a respond
// callback, and the Radical runtime wraps both sides with network sends.

#ifndef RADICAL_SRC_LVI_LVI_SERVER_H_
#define RADICAL_SRC_LVI_LVI_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/analysis/registry.h"
#include "src/analysis/rw_set.h"
#include "src/common/sm.h"
#include "src/common/stats.h"
#include "src/kv/versioned_store.h"
#include "src/lvi/lock_service.h"
#include "src/lvi/messages.h"
#include "src/lvi/shard_router.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/simulator.h"

namespace radical {

struct LviServerOptions {
  // Request parsing / handler dispatch.
  SimDuration process_delay = Micros(300);
  // Overhead of invoking the backup copy of a function in the near-storage
  // location (the paper measures ~12 ms to invoke a Lambda in-datacenter).
  SimDuration backup_invoke_overhead = Millis(12);
  // Write-intent timer: longer than the expected execution latency of the
  // function plus the followup's network trip (§3.4).
  SimDuration intent_timeout = Millis(1500);
  // Serving capacity in requests/second; 0 = unlimited. The paper's server
  // is a singleton t3.2xlarge and "the only bottleneck Radical introduces"
  // (§5.3): with a finite capacity, arrivals queue M/D/1-style and response
  // times blow up near saturation (bench/throughput_server).
  uint64_t serving_capacity_rps = 0;
  // Overload control: maximum number of requests allowed to wait in a
  // shard's admission queue (the backlog behind `busy_until_`). 0 =
  // unbounded (the historical M/D/1 model, where response times grow
  // without limit past saturation). With a limit, an arrival that finds the
  // queue full is rejected immediately with ResponseStatus::kOverloaded and
  // a retry-after hint equal to the backlog's drain time, instead of being
  // queued — bounding both queue depth and tail latency. Only meaningful
  // when serving_capacity_rps > 0.
  size_t admission_queue_limit = 0;
  // Hot-path shard count: lock tables, admission slots and metrics split
  // into this many key-range shards (1 = the paper's singleton). Each shard
  // gets the full serving_capacity_rps — the model for "one server process
  // per shard". Replicated (§5.6) deployments run one Raft lock group per
  // shard (multi-Raft), so the hot path and its lock groups share one
  // ShardRouter.
  int shards = 1;
  // Interpreter limits of every execution of a function: the runs at the
  // primary here, and, through RadicalConfig::server, the runtime's
  // speculation and the ideal deployment's runs. One field, so a speculation
  // and its deterministic re-execution charge the same per_step_cost.
  ExecLimits exec_limits;
};

// Lifecycle of a committed write intent (§3.4), as a checked state machine
// (src/common/sm.h). The phases mirror the crash-epoch protocol: an armed
// intent waits for its followup with a live timer; a crash orphans it (the
// timer is volatile, the intent is durable) and recovery re-arms it; exactly
// one resolver — the followup (apply) or the timer / direct fallback
// (deterministic re-execution) — carries it to finished. The move out of
// armed is the claim that picks the winner; the loser finds the intent no
// longer armed. The graph makes a double-resolve or a resurrect-after-finish
// abort loudly instead of corrupting locks or the primary.
enum class IntentPhase : uint32_t {
  kArmed = 0,    // Intent durable, timer armed, waiting for the followup.
  kOrphaned,     // Server down: the timer died, the intent survives on disk.
  kApplying,     // Followup won the race: its writes landed, its locks not yet released.
  kReExecuting,  // Timer or direct fallback won: re-executing until its writes land.
  kFinished,     // Locks released, intent retired. Terminal; also a missing record.
};

inline constexpr SmStateSpec kIntentPhaseSpec[] = {
    {"armed", SmMask(IntentPhase::kApplying) | SmMask(IntentPhase::kReExecuting) |
                  SmMask(IntentPhase::kOrphaned)},
    // orphaned -> orphaned: a second Crash() while already down is a no-op
    // sweep over the same executions (idempotent double-crash).
    {"orphaned", SmMask(IntentPhase::kArmed) | SmMask(IntentPhase::kOrphaned)},
    // applying survives a crash untouched: its writes are durable, and
    // recovery only releases its locks.
    {"applying", SmMask(IntentPhase::kFinished)},
    // reexecuting -> orphaned: a crash between the re-execution's read point
    // and its writes; recovery re-arms the intent and it runs again.
    {"reexecuting", SmMask(IntentPhase::kFinished) | SmMask(IntentPhase::kOrphaned)},
    {"finished", 0},
};

class LviServer {
 public:
  using RespondFn = std::function<void(LviResponse)>;
  using DirectRespondFn = std::function<void(DirectResponse)>;
  // Cache push (see CachePush): receives each execution's written items the
  // moment they are durable at the primary.
  using PushFn = std::function<void(CachePush push)>;

  // All pointers must outlive the server. `locks` has one lock group per
  // shard of `options.shards`: local groups (§4), or Raft groups (§5.6),
  // which also turn on idempotency-key accounting and at-most-once
  // enforcement.
  // `externals` (optional) provides the external services functions may
  // call (§3.5); backup executions and deterministic re-executions reuse
  // the original execution id so services deduplicate.
  LviServer(Simulator* sim, VersionedStore* store, const FunctionRegistry* registry,
            const Interpreter* interpreter, LockService* locks, LviServerOptions options = {},
            ExternalServiceRegistry* externals = nullptr);

  LviServer(const LviServer&) = delete;
  LviServer& operator=(const LviServer&) = delete;

  // Handles one LVI request; `respond` fires (as a simulator event) when the
  // response is ready to be sent back. Idempotent per exec_id: a retried
  // request replays the cached response, re-attaches to the in-flight
  // pipeline, or (after a crash) restarts admission against the surviving
  // durable state — it never double-locks or double-executes. The request's
  // acknowledgement (Ack) is applied first; an attempt whose id its origin
  // has already acknowledged is late and dropped unanswered
  // ("at_most_once_refused").
  void HandleLviRequest(LviRequest request, RespondFn respond);

  // Handles a write followup. Nothing is sent back: the client's answer
  // comes with the LVI response, and the write intent covers a lost or late
  // followup. A followup that finds its execution's LVI pipeline still
  // running and no intent yet is parked ("followup_parked") until that
  // pipeline ends: a successful validation commits it; a failed one, a
  // shed, a crash or any LVI response before that drops it
  // ("followup_dropped_invalid"). Applied writes file the followup's result
  // as the execution's direct reply, so a failover replay of the request
  // replays it ("duplicate_replayed") instead of running f again.
  void HandleFollowup(WriteFollowup followup);

  // Executes a function directly in the near-storage location: the fallback
  // for unanalyzable functions, and the primary-datacenter baseline's path.
  // Acknowledgements and late attempts as for HandleLviRequest.
  void HandleDirect(DirectRequest request, DirectRespondFn respond);

  // --- Failure injection ------------------------------------------------------
  // Crash-stops the server: requests and followups arriving while it is down
  // are lost (clients see no reply until they retry; LVI requests cannot be
  // handled "until the server is brought back online", §5.6). Volatile state
  // — the intent timers — dies; the durable state survives: locks are
  // persisted to disk (§4) and write intents (with the execution's inputs)
  // live in the primary store (§3.1).
  void Crash();

  // Brings the server back: every still-pending write intent gets a fresh
  // timer, so executions whose followups were lost during the outage resolve
  // by deterministic re-execution.
  void Recover();

  bool alive() const { return alive_; }
  // Crash epoch: bumped by both Crash() and Recover(). Continuations
  // scheduled before a crash capture the epoch they were born in and drop
  // themselves (stale_epoch_dropped) when they fire into a later one, so no
  // in-flight pipeline step mutates post-crash state.
  uint64_t epoch() const { return epoch_; }

  // --- Statistics -----------------------------------------------------------
  // The server's counters live in the simulator's MetricsRegistry under
  // "lvi_server." (unique per instance); this is the server's registry
  // slice. Returned by value — MetricsScope is a copyable view. The sizes of
  // the server's tables are callback gauges there, read at snapshot time:
  // size.lvi_replies, size.direct_replies, size.applied (idempotency keys),
  // size.executions (write intents) and size.parked (early followups).
  // blind_repinned counts the blind writes whose validated reply carried
  // the primary's version because the cache's differed.
  obs::MetricsScope counters() const { return metrics_; }
  uint64_t validations_succeeded() const { return metrics_.Get("validate_success"); }
  uint64_t validations_failed() const { return metrics_.Get("validate_fail"); }
  // The failed validations of writers, each answered by a backup execution
  // here; a read-only one is answered with a snapshot instead.
  uint64_t backup_executions() const { return metrics_.Get("backup_exec"); }
  uint64_t reexecutions() const { return metrics_.Get("reexecute"); }
  uint64_t late_followups_discarded() const { return metrics_.Get("followup_late"); }
  double ValidationSuccessRate() const {
    return metrics_.RatioOf("validate_success", "validate_fail");
  }

  // Where committed writes go: the deployment fans each push out to the
  // near-user caches. Unset (the default, and the primary-DC baseline), the
  // server pushes nothing. Seeding the store directly never pushes.
  void set_push_listener(PushFn push) { push_ = std::move(push); }

  // Optional span sink: when set, each pipeline substep (admission, lock
  // wait, validation, intent write, backup execution) is recorded as a
  // server-track span keyed by execution id. Must outlive the server.
  void set_span_collector(obs::SpanCollector* spans) { spans_ = spans; }
  // True if no execution state is pending (tests: nothing leaked).
  bool idle() const { return executions_.empty() && parked_.empty(); }

 private:
  // The versions an execution's written keys had when its write locks were
  // granted: at validation for an intent, at the read point for a run.
  // Commit applies each write at its pinned version.
  struct Pins {
    std::vector<Key> keys;          // Sorted.
    std::vector<Version> versions;  // Parallel to keys.
    Version Of(const Key& key) const;
  };

  // The one record of a write intent, from its creation until its locks are
  // released (or, after a crash, until recovery releases them).
  struct ExecState {
    LviRequest request;
    Pins pins;
    EventId intent_timer = kInvalidEventId;
    // Where this intent is in its lifecycle; every phase change is a
    // checked Move against kIntentPhaseSpec.
    Sm<IntentPhase> phase{kIntentPhaseSpec, IntentPhase::kArmed};
  };
  // The phase of `exec_id`'s intent; kFinished when it has no record (never
  // created, or retired).
  IntentPhase PhaseOf(ExecutionId exec_id) const;
  // Moves the intent to finished, drops its record and releases its locks.
  void RetireIntent(ExecutionId exec_id);

  // Who acknowledges an execution: the runtime life that issued it, packed
  // as 1 + life * kNumRegions + region. kNoOrigin files a request that
  // carries no acknowledgement (a failover replay, or a hand-built one); no
  // acknowledgement ever erases its entries.
  using Origin = uint64_t;
  static constexpr Origin kNoOrigin = 0;
  template <typename Request>
  static Origin OriginOf(const Request& request) {
    if (request.ack.below == 0) {
      return kNoOrigin;
    }
    return 1 + request.ack.life * static_cast<Origin>(kNumRegions) +
           static_cast<Origin>(request.origin);
  }

  // What the server keeps per execution until its origin acknowledges it (a
  // reply, or an idempotency key), filed per origin in exec-id order so an
  // acknowledgement erases its origin's acknowledged range in one sweep.
  // Server state is thus bounded by the work in flight (RIFL's completion
  // records). Modeled as durable: it lives next to the idempotency keys in
  // the primary store (§3.4/§5.6), so it survives Crash().
  template <typename Entry>
  class AckedTable {
   public:
    const Entry* Find(ExecutionId exec_id) const {
      const auto it = entries_.find(exec_id);
      return it == entries_.end() ? nullptr : &it->second;
    }
    // Files `entry` under `origin`. An existing entry is overwritten and
    // stays filed where it was; returns false in that case.
    bool Put(Origin origin, ExecutionId exec_id, Entry entry) {
      if (!entries_.insert_or_assign(exec_id, std::move(entry)).second) {
        return false;
      }
      by_origin_[origin].insert(exec_id);
      return true;
    }
    // Erases `origin`'s entries below `below`.
    void EraseBelow(Origin origin, ExecutionId below) {
      const auto filed = by_origin_.find(origin);
      if (filed == by_origin_.end()) {
        return;
      }
      std::set<ExecutionId>& ids = filed->second;
      const auto end = ids.lower_bound(below);
      for (auto it = ids.begin(); it != end; ++it) {
        entries_.erase(*it);
      }
      ids.erase(ids.begin(), end);
    }
    size_t size() const { return entries_.size(); }

   private:
    std::unordered_map<ExecutionId, Entry> entries_;
    std::map<Origin, std::set<ExecutionId>> by_origin_;
  };

  // Applies the acknowledgement a request carries: raises its origin's
  // floor and erases what the server kept below it. Returns false, counting
  // the refusal, when the request's own id is below that floor: a late
  // attempt, which without this check could run a writer twice.
  bool Acknowledge(ExecutionId exec_id, Origin origin, ExecutionId below);

  // True when the server is up and still in the epoch a continuation was
  // scheduled in; continuations from before a crash (or from the previous
  // life, after a recover) bail out through this check.
  bool StillAlive(uint64_t epoch) const { return alive_ && epoch == epoch_; }

  // (5) + (6a) for a request whose locks were just granted: it is shed if
  // its deadline has passed; else one BatchGet round reads the primary's
  // value and version of each item, and a valid writer then writes its
  // intent in one more round.
  void Validate(LviRequest request);
  // (6b): a read-only request releases its read locks and is answered with
  // `primary_items`, the batch read (its snapshot); a writer runs as a
  // backup at the primary.
  void OnValidationFailure(LviRequest request, const std::vector<size_t>& stale_indices,
                           std::vector<Item> primary_items);
  // Tail of the success path, once the intent write's latency has elapsed:
  // commit a parked followup's writes in that write and release the locks,
  // or else create the intent record (idempotently) and arm its timer; then
  // reply.
  void CommitIntent(LviRequest request, Pins pins);
  // The intent-write round: one primary-store write, plus the idempotency
  // key in the replicated configuration.
  SimDuration IntentWriteLatency() const;
  // The apply half of a followup, shared by one that found its armed intent
  // and one parked until its validation: commits its writes at the versions
  // `pins` holds (adding the write cost to `latency`, if given) and files
  // its result and written items as the execution's direct reply.
  void ApplyFollowup(const LviRequest& request, const WriteFollowup& followup, const Pins& pins,
                     SimDuration* latency);
  // Drops `exec_id`'s parked followup, if any, unapplied.
  void DropParked(ExecutionId exec_id);
  // The race between the followup and re-execution: moves `exec_id`'s
  // intent out of armed to `winner` and cancels its timer. Returns null when
  // the intent is not armed (the other resolver won, there is none, or the
  // server is down and it is orphaned).
  ExecState* ClaimIntent(ExecutionId exec_id, IntentPhase winner);
  // Shared by the intent timer and the direct path: claims an armed intent
  // and deterministically re-executes it from its stored request through
  // RunAtPrimary. Its reply is a DirectResponse, cached for (and sent to) a
  // direct request of the same execution.
  void ResolveIntentByReExecution(ExecutionId exec_id);

  // One execution of a function at the primary: a writer's backup after a
  // failed validation, a deterministic re-execution, or a direct execution.
  struct PrimaryRun {
    enum Kind { kBackup, kReExecution, kDirect };
    PrimaryRun(Kind run_kind, ExecutionId id, Origin run_origin, const AnalyzedFunction* function,
               std::vector<Value> args)
        : kind(run_kind), exec_id(id), origin(run_origin), fn(function), inputs(std::move(args)) {}
    Kind kind;
    ExecutionId exec_id;
    Origin origin;  // Where its reply and idempotency key are filed.
    const AnalyzedFunction* fn;
    std::vector<Value> inputs;
    // Backup only: the items validation found stale, repaired in the reply.
    std::vector<Key> stale_keys;
    // The locks the run holds, by mode: read-locked keys in `reads`,
    // write-locked keys in `writes`. A rerun adds the keys its last run
    // touched.
    RwSet locks;
    // Set at the read point: the buffered writes, their keys' versions
    // there, and the return value.
    std::vector<BufferedWrite> writes;
    Pins pins;
    Value result;
    // Set at the commit, and already in the reply cache: the backup's
    // LviResponse, or the DirectResponse of the other kinds.
    LviResponse lvi_reply;
    DirectResponse direct_reply;
  };
  // The one execution funnel at the primary: the invoke overhead, then
  // ReadPoint. The reply is an LviResponse for a backup, else a
  // DirectResponse.
  void RunAtPrimary(PrimaryRun run);
  // Runs the function against the primary under its locks, writes
  // buffered. An uncovered run reruns under the union of its locks and what
  // it touched; a covered one commits now if read-only, else after its
  // compute. The reply leaves `elapsed` after the last read point.
  void ReadPoint(std::shared_ptr<PrimaryRun> run, SimTime start);
  // Acquires `locks` in (shard, key) order; `granted` runs once all are
  // held, unless the server crashed meanwhile.
  void AcquireThen(ExecutionId exec_id, const RwSet& locks, std::function<void()> granted);
  // The commit point of a run: commits its writes, records the reply in
  // the reply cache, retires a re-execution's intent, and releases the
  // locks.
  void FinishRun(PrimaryRun& run);
  // The one site where writes land at the primary, for a followup and for
  // every run: applies each write at the version `pins` holds for its key
  // (adding the write cost to `latency`, if given), records the idempotency
  // key with them (filed under `origin`), and hands the written items to the
  // push listener. Returns those items; none when the idempotency key
  // refused the writes.
  std::vector<FreshItem> Commit(ExecutionId exec_id, Origin origin,
                                const std::vector<BufferedWrite>& writes, const Pins& pins,
                                SimDuration* latency);

  // Fresh copies of `keys` from the primary, sorted and deduplicated; keys
  // the primary does not hold are skipped.
  std::vector<FreshItem> FreshItems(std::vector<Key> keys) const;
  // A validated writer's reply items: each blind write whose cached version
  // differs from its pinned one, at the pinned version and with no value.
  static std::vector<FreshItem> Repinned(const LviRequest& request, const Pins& pins);

  // Completion funnel: caches the reply (idempotency) under the request's
  // origin and answers the freshest in-flight respond slot for the exec, if
  // any.
  void RespondLvi(const LviRequest& request, LviResponse response);
  // Answers the exec's in-flight LVI slot, if any, without caching; the LVI
  // pipeline has ended, so a followup still parked there is dropped.
  void AnswerLvi(ExecutionId exec_id, LviResponse response);

  // Records one server-track span ending now (no-op without a collector).
  void EmitSpan(const char* name, ExecutionId exec_id, SimTime start);

  Simulator* sim_;
  VersionedStore* store_;
  const FunctionRegistry* registry_;
  const Interpreter* interpreter_;
  LockService* locks_;
  LviServerOptions options_;
  ExternalServiceRegistry* externals_;
  bool alive_ = true;
  uint64_t epoch_ = 0;
  // --- Sharding ---------------------------------------------------------------
  // Key-range router shared with the deployment's lock service.
  ShardRouter router_;
  // Per-shard metric scopes "<scope>.shard<i>"; empty when shards == 1 so
  // the default configuration creates no extra instruments.
  std::vector<obs::MetricsScope> shard_metrics_;
  // Idempotency keys (replicated deployments, §5.6): the executions whose
  // writes reached the primary, kept until acknowledged. At most one
  // execution of a request applies any.
  AckedTable<bool> applied_;
  // Write intents, durable (they live in the primary store with the
  // execution's inputs). Execution ids are globally unique, so one map
  // serves every shard.
  std::unordered_map<ExecutionId, ExecState> executions_;
  // Followups that arrived before their execution's validation, by exec:
  // the writes wait here until the pipeline validates (and commits them) or
  // ends otherwise (and drops them). Volatile — cleared on Crash().
  std::unordered_map<ExecutionId, WriteFollowup> parked_;
  // In-flight respond slots: a retried request lands here while the original
  // attempt's pipeline is still running, so exactly one reply fires (through
  // the freshest callback) when it completes. Volatile — cleared on Crash().
  std::unordered_map<ExecutionId, RespondFn> inflight_lvi_;
  std::unordered_map<ExecutionId, DirectRespondFn> inflight_direct_;
  obs::MetricsScope metrics_;
  AckedTable<LviResponse> lvi_replies_;
  AckedTable<DirectResponse> direct_replies_;
  // Per origin, the highest acknowledgement seen: its ids below it are
  // final, and an attempt for one is late. Durable, with the tables.
  std::map<Origin, ExecutionId> acked_below_;
  obs::SpanCollector* spans_ = nullptr;
  PushFn push_;
  // Capacity model, per shard: the instant shard i frees up (>= now when
  // busy). Each shard has the full serving capacity.
  std::vector<SimTime> busy_until_;
  // Admission: returns the queueing + processing delay for one message
  // arriving at `shard` under its capacity model.
  SimDuration AdmissionDelay(int shard);
  // Deterministic per-request service time under the capacity model
  // (rounded up so sub-microsecond service never truncates to "free").
  SimDuration ServiceTime() const;
  // Requests currently waiting in `shard`'s admission queue (0 when the
  // capacity model is off or the shard is idle).
  size_t QueueDepth(int shard) const;

  // --- Overload control --------------------------------------------------------
  // Admission-time verdict for a new request on `shard` with (absolute)
  // client deadline `deadline` (0 = none). kOk admits; kOverloaded means the
  // admission queue is full; kShed means the queueing + service + processing
  // time already overruns the deadline. `retry_after` (may be null) receives
  // the backlog drain-time hint on a non-kOk verdict.
  ResponseStatus AdmissionVerdict(int shard, SimTime deadline, SimDuration* retry_after);
  // Answers an LVI request with a non-kOk status after process_delay only —
  // no admission slot, no reply-cache entry (a retry under lighter load
  // should process fresh).
  void RejectLvi(ExecutionId exec_id, RespondFn respond, ResponseStatus status,
                 SimDuration retry_after);
  // Sheds a request mid-pipeline (locks already granted): releases its
  // locks and answers the in-flight respond slot with kShed, uncached.
  void ShedMidPipeline(const LviRequest& request, const char* stage);
  // Answers `respond` with `response` after the parse/dispatch cost only,
  // unless the server crashes first: rejections and cached-reply replays.
  template <typename Respond, typename Response>
  void AnswerAfterProcessing(Respond respond, Response response);
  // Tracks the shard's queue depth on the registry gauges ("queue_depth" +
  // high-water "queue_depth_peak"); only touched when the capacity model is
  // on, so default configurations register no extra instruments.
  void NoteQueueDepth(int shard);

  // --- Shard helpers ----------------------------------------------------------
  // Home shard of a request: the shard of its first item (0 when item-less).
  int HomeShard(const LviRequest& request) const;
  // Bumps `name` on `shard`'s scope; no-op at shards == 1 (the global scope
  // is always bumped separately at the call sites).
  void BumpShard(int shard, const std::string& name);
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LVI_SERVER_H_
