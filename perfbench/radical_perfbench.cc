// One run of one open-loop benchmark workload against a RadicalDeployment.
//
//   radical_perfbench --workload <name> --seed <n> [--trace] [--perfetto <path>]
//                     [--scale <f>]
//   radical_perfbench --workload <name> --seed <n> --setup-only
//
// Builds the deployment, drives seeded Poisson arrivals spread evenly over
// the five paper regions, drains and checks every output; a workload made of
// several trials does this once per trial on a fresh deployment and pools
// the results. It prints one JSON object with the run's raw results on
// stdout. --setup-only instead builds
// and fills the deployment kSetups times and prints the time of every phase
// of every set-up. run.py repeats both, takes medians of the host-time
// figures and prints the benchmark's metrics; README.md describes the
// workloads and the metrics.
//
// --trace attaches an obs::SpanCollector, folds its spans into per-name
// virtual-duration samples after every virtual second of the run and clears
// it, so memory stays bounded. --perfetto additionally keeps the spans that
// start in the first two virtual seconds of the measured window and writes
// them as a Chrome/Perfetto trace. --scale shrinks the warm-up and measured
// windows (the determinism self-test uses it).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/json.h"
#include "src/obs/span.h"
#include "src/radical/deployment.h"

namespace radical {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Requests answered within this many virtual ms meet the latency objective:
// the primary-datacenter baseline's p99 (~367 ms, fig4) rounded up.
constexpr double kSloMs = 400.0;
// The workload's arrivals stop at the end of the measured window; the run
// then drains for at most this long.
constexpr SimDuration kMaxDrain = Seconds(120);
// The run advances in chunks of this much virtual time; between chunks the
// traced run folds and clears its span collector.
constexpr SimDuration kChunk = Seconds(1);
// Set-up is cheap and noisy, so --setup-only sets up this many times.
constexpr int kSetups = 9;
// --perfetto keeps the spans starting in this much of the measured window.
constexpr SimDuration kPerfettoWindow = Seconds(2);

struct Workload {
  const char* name;
  const char* app;  // "social", "forum" or "hotel".
  double rps;       // Open-loop arrival rate over all regions.
  int replicated_locks;
  SimDuration warmup;   // Left out of every statistic.
  SimDuration measure;  // Arrivals due in here are measured.
  // Crash the lock group's leader halfway through the measured window and
  // restart it one second later.
  bool failover;
  // Independent trials, each on a fresh deployment with its own simulator
  // seed; their statistics are pooled.
  int trials;
};

// hotel_failover pools 25 short trials (about 10k measured requests, as on
// the steady workloads) rather than running one long one: a crash delays only
// the few requests in flight, so the tail of one trial depends on where its
// crash lands, and follower catch-up costs more host time the longer the log
// is at the crash.
constexpr Workload kWorkloads[] = {
    {"social_read", "social", 200.0, 0, Seconds(5), Seconds(250), false, 1},
    {"forum_write", "forum", 100.0, 0, Seconds(5), Seconds(4800), false, 1},
    {"hotel_raft", "hotel", 50.0, 3, Seconds(5), Seconds(205), false, 1},
    {"hotel_failover", "hotel", 50.0, 3, Seconds(2), Seconds(8), true, 25},
};

AppSpec MakeApp(const std::string& app) {
  if (app == "social") {
    return MakeSocialApp();
  }
  if (app == "forum") {
    return MakeForumApp();
  }
  return MakeHotelApp();
}

// What the output check needs to know about an arrival.
enum class CheckKind : uint8_t { kNone, kVote, kPostRow, kBooking };

struct Arrival {
  SimTime due = 0;
  SimTime replied = 0;
  uint32_t finals = 0;
  RequestStatus status = RequestStatus::kOk;
  bool measured = false;
  CheckKind check = CheckKind::kNone;
  bool booked = false;  // hotel_book replied true.
  uint32_t check_key = 0;  // Index into Bench::check_keys_.
};

// Counters read at the start and at the end of each trial.
struct Snapshot {
  uint64_t events = 0;
  uint64_t wan_msgs = 0;
  uint64_t wan_bytes = 0;
  uint64_t mesh_msgs = 0;
  uint64_t raft_commits = 0;
  uint64_t raft_appends = 0;
  uint64_t raft_term = 0;
  uint64_t acquire_resubmits = 0;
  uint64_t release_retries = 0;
  uint64_t validate_ok = 0;
  uint64_t validate_fail = 0;
  uint64_t lock_waits = 0;
  uint64_t reexecutions = 0;
  uint64_t speculations = 0;
  uint64_t validated_speculative = 0;
  uint64_t retries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t primary_reads = 0;
  uint64_t primary_writes = 0;
};

class Bench {
 public:
  Bench(const Workload& workload, uint64_t seed, double scale)
      : workload_(workload),
        seed_(seed),
        warmup_(static_cast<SimDuration>(static_cast<double>(workload.warmup) * scale)),
        measure_(static_cast<SimDuration>(static_cast<double>(workload.measure) * scale)),
        app_(MakeApp(workload.app)),
        rng_(seed * 0x9E3779B97F4A7C15ULL + 0x5851F42D4C957F2DULL) {}

  // Builds and fills the deployment `setups` times, keeping the last one,
  // and times every phase of every set-up.
  void SetUp(int setups) {
    for (int i = 0; i < setups; ++i) {
      clients_.clear();
      deployment_.reset();
      net_.reset();
      sim_.reset();
      const Clock::time_point start = Clock::now();
      sim_ = std::make_unique<Simulator>(seed_ ^ (static_cast<uint64_t>(trial_) << 32));
      net_ = std::make_unique<Network>(sim_.get(), LatencyMatrix::PaperDefault());
      // The constructor elects the Raft lock group's leader on the hotel
      // workloads (ReplicatedLockService::Bootstrap).
      deployment_ = std::make_unique<RadicalDeployment>(sim_.get(), net_.get(), RadicalConfig{},
                                                        DeploymentRegions(),
                                                        workload_.replicated_locks);
      setup_times_.deploy_build_s.push_back(SecondsSince(start));
      Clock::time_point t = Clock::now();
      app_.RegisterAll(deployment_.get());
      setup_times_.register_s.push_back(SecondsSince(t));
      t = Clock::now();
      app_.seed(deployment_.get());
      setup_times_.seed_s.push_back(SecondsSince(t));
      t = Clock::now();
      deployment_->WarmCaches();
      setup_times_.warm_s.push_back(SecondsSince(t));
      setup_times_.setup_s.push_back(SecondsSince(start));
    }
    workload_fn_ = app_.make_workload();
    for (const Region region : DeploymentRegions()) {
      clients_.push_back(deployment_->client(region));
    }
  }

  // Runs the workload's trials one after another, each on a freshly set-up
  // deployment, and checks each trial's outputs before the next replaces it.
  // --perfetto keeps the spans of the first trial only.
  void RunTrials(bool traced, bool perfetto) {
    for (trial_ = 0; trial_ < workload_.trials; ++trial_) {
      SetUp(1);
      if (traced) {
        traced_ = true;
        keep_perfetto_ = perfetto && trial_ == 0;
        deployment_->AttachSpans(&spans_);
      }
      Run();
      Check();
    }
  }

  // The wall time of every phase of every set-up.
  std::string SetupJson() const {
    obs::JsonWriter w;
    w.BeginObject();
    WriteHeader(&w);
    auto put = [&w](const char* name, const std::vector<double>& seconds) {
      w.Key(name);
      w.BeginArray();
      for (const double s : seconds) {
        w.Double(s, 9);
      }
      w.EndArray();
    };
    put("setup_s", setup_times_.setup_s);
    put("deploy_build_s", setup_times_.deploy_build_s);
    put("register_s", setup_times_.register_s);
    put("seed_s", setup_times_.seed_s);
    put("warm_s", setup_times_.warm_s);
    w.EndObject();
    return w.str();
  }

  std::string ResultJson() const {
    LatencySampler latencies;
    uint64_t measured = 0;
    uint64_t within_slo = 0;
    uint64_t failed = 0;
    uint64_t completed = 0;
    for (const Arrival& a : arrivals_) {
      const bool ok = a.finals == 1 && a.status == RequestStatus::kOk;
      failed += ok ? 0 : 1;
      completed += a.finals > 0 ? 1 : 0;
      if (!a.measured) {
        continue;
      }
      ++measured;
      if (ok) {
        latencies.Add(a.replied - a.due);
        within_slo += ToMillis(a.replied - a.due) <= kSloMs ? 1 : 0;
      }
    }
    // Percentiles are over the measured requests answered kOk; failed ones
    // show in slo_pct and failed_pct. The tail is the highest percentile
    // with at least ten samples beyond it, capped at 99.9.
    const double answered = static_cast<double>(latencies.count());
    const double tail_pct =
        latencies.empty() ? 0.0 : std::clamp(100.0 * (1.0 - 10.0 / answered), 0.0, 99.9);

    obs::JsonWriter w;
    w.BeginObject();
    WriteHeader(&w);
    w.Key("correct");
    w.Bool(violations_.empty());
    w.Key("violations");
    w.BeginArray();
    for (size_t i = 0; i < violations_.size() && i < 10; ++i) {
      w.String(violations_[i]);
    }
    w.EndArray();
    w.Key("checked_rows");
    w.Uint(checked_rows_);
    w.Key("arrivals");
    w.Uint(arrivals_.size());
    w.Key("arrival_hash");
    w.String(std::to_string(arrival_hash_));
    w.Key("completed");
    w.Uint(completed);
    w.Key("failed");
    w.Uint(failed);
    w.Key("measured");
    w.Uint(measured);
    w.Key("virtual");
    w.BeginObject();
    w.Key("mean_ms");
    w.Double(latencies.MeanMs(), 9);
    w.Key("p50_ms");
    w.Double(latencies.PercentileMs(50.0), 6);
    w.Key("p99_ms");
    w.Double(latencies.PercentileMs(99.0), 6);
    w.Key("p999_ms");
    w.Double(latencies.PercentileMs(tail_pct), 6);
    w.Key("tail_pct");
    w.Double(tail_pct, 6);
    w.Key("slo_pct");
    w.Double(measured == 0 ? 0.0
                           : 100.0 * static_cast<double>(within_slo) / static_cast<double>(measured),
             9);
    w.Key("failed_pct");
    w.Double(arrivals_.empty() ? 0.0
                               : 100.0 * static_cast<double>(failed) /
                                     static_cast<double>(arrivals_.size()),
             9);
    w.Key("gen_lag_max_ms");
    w.Double(ToMillis(max_lag_), 3);
    w.Key("virtual_s");
    w.Double(virtual_s_, 6);
    w.EndObject();
    w.Key("host");
    w.BeginObject();
    w.Key("run_s");
    w.Double(run_wall_s_, 9);
    w.Key("us_per_req");
    w.Double(completed == 0 ? 0.0 : 1e6 * run_wall_s_ / static_cast<double>(completed), 9);
    w.Key("ns_per_event");
    const uint64_t events = TrialSum(&Snapshot::events);
    w.Double(events == 0 ? 0.0 : 1e9 * run_wall_s_ / static_cast<double>(events), 9);
    w.Key("peak_rss_mb");
    w.Double(PeakRssMb(), 6);
    w.EndObject();
    w.Key("layers");
    WriteLayers(&w);
    w.EndObject();
    return w.str();
  }

  bool WritePerfetto(const std::string& path) const {
    return perfetto_.WriteChromeTrace(path);
  }

 private:
  void Violation(std::string what) { violations_.push_back(std::move(what)); }

  void Run() {
    trial_begin_ = arrivals_.size();
    outstanding_ = 0;
    check_keys_.clear();
    booking_key_.clear();
    seeded_avail_.clear();
    base_ = sim_->Now();
    const SimTime measure_from = base_ + warmup_;
    arrival_end_ = measure_from + measure_;
    ScheduleNextArrival(base_);
    if (workload_.failover) {
      sim_->ScheduleAt(measure_from + measure_ / 2, [this] { CrashLeader(); });
    }

    // The counts run from here to the end of the drain, so they hold all the
    // work of the trial's arrivals, the warm-up's included, and nothing else.
    // (Counts over the measured window alone also hold the end of the work of
    // warm-up arrivals still in flight, which skews ratios over the short
    // hotel_failover trials.)
    const Snapshot before = Take();
    const Clock::time_point run_start = Clock::now();
    RunTo(arrival_end_);
    const SimTime drain_limit = arrival_end_ + kMaxDrain;
    while (outstanding_ > 0 && sim_->Now() < drain_limit) {
      RunTo(std::min(drain_limit, sim_->Now() + kChunk));
    }
    run_wall_s_ += SecondsSince(run_start);
    virtual_s_ += static_cast<double>(sim_->Now() - base_) / 1e6;
    trial_counts_.emplace_back(before, Take());
    Fold();
  }

  // Every arrival of the trial gets exactly one final reply, nothing
  // acknowledged is lost, and hotel availability matches the acknowledged
  // bookings.
  void Check() {
    const VersionedStore& primary = deployment_->primary();
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> bookings;  // key -> (acked, true)
    uint64_t no_reply = 0;
    uint64_t extra_finals = 0;
    uint64_t not_ok = 0;
    for (size_t i = trial_begin_; i < arrivals_.size(); ++i) {
      const Arrival& a = arrivals_[i];
      if (a.finals == 0) {
        ++no_reply;
        continue;
      }
      if (a.finals > 1) {
        ++extra_finals;
      }
      if (a.status != RequestStatus::kOk) {
        ++not_ok;
        continue;
      }
      if (a.check == CheckKind::kBooking) {
        auto& [acked, booked] = bookings[a.check_key];
        ++acked;
        booked += a.booked ? 1 : 0;
      } else if (a.check != CheckKind::kNone) {
        const Key& key = check_keys_[a.check_key];
        const std::optional<Item> item = primary.Peek(key);
        ++checked_rows_;
        if (!item.has_value()) {
          Violation("acknowledged row missing: " + key);
        } else if (a.check == CheckKind::kVote && item->value != Value(int64_t{1})) {
          Violation("acknowledged vote row holds " + item->value.ToString() + ": " + key);
        }
      }
    }
    for (const auto& [index, counts] : bookings) {
      const Key& key = check_keys_[index];
      const std::optional<Item> item = primary.Peek(key);
      ++checked_rows_;
      if (!item.has_value() || !item->value.is_int()) {
        Violation("availability row missing: " + key);
        continue;
      }
      const int64_t seeded = seeded_avail_.at(index);
      const int64_t final_avail = item->value.AsInt();
      const auto acked = static_cast<int64_t>(counts.first);
      const auto booked = static_cast<int64_t>(counts.second);
      if (seeded - final_avail != acked) {
        Violation(key + ": seeded " + std::to_string(seeded) + " - final " +
                  std::to_string(final_avail) + " != " + std::to_string(acked) +
                  " acknowledged bookings");
      }
      if (booked != std::min(seeded, acked)) {
        Violation(key + ": " + std::to_string(booked) + " true replies, expected " +
                  std::to_string(std::min(seeded, acked)));
      }
    }
    if (no_reply + extra_finals + not_ok > 0) {
      Violation(std::to_string(no_reply) + " arrivals without a final reply, " +
                std::to_string(extra_finals) + " with more than one, " +
                std::to_string(not_ok) + " with a non-kOk final");
    }
  }

  void WriteHeader(obs::JsonWriter* w) const {
    w->Key("workload");
    w->String(workload_.name);
    w->Key("seed");
    w->Uint(seed_);
    w->Key("build_type");
    w->String(PERFBENCH_BUILD_TYPE);
    w->Key("compiler");
    w->String(PERFBENCH_COMPILER);
  }

  // Runs in chunks of kChunk virtual time; between chunks the traced run
  // folds its spans.
  void RunTo(SimTime until) {
    while (sim_->Now() < until) {
      sim_->RunUntil(std::min(until, sim_->Now() + kChunk));
      Fold();
    }
  }

  void ScheduleNextArrival(SimTime previous_due) {
    // Exponential inter-arrival gap of the Poisson process, in whole µs.
    const double u = rng_.NextDouble();
    const double gap_s = -std::log1p(-u) / workload_.rps;
    const SimTime due = previous_due + std::max<SimDuration>(1, std::llround(gap_s * 1e6));
    if (due >= arrival_end_) {
      return;
    }
    sim_->ScheduleAt(due, [this, due] { Arrive(due); });
  }

  // One arrival: generated when the one before it fires, so the event queue
  // holds at most one pending arrival.
  void Arrive(SimTime due) {
    max_lag_ = std::max(max_lag_, sim_->Now() - due);
    const size_t region = rng_.NextBelow(clients_.size());
    RequestSpec spec = workload_fn_(rng_);
    const auto index = static_cast<uint32_t>(arrivals_.size());
    Arrival arrival;
    arrival.due = due;
    arrival.measured = due >= base_ + warmup_;
    Classify(spec, &arrival);
    arrivals_.push_back(arrival);
    Hash(static_cast<uint64_t>(due));
    Hash(region);
    Hash(spec.function);
    for (const Value& input : spec.inputs) {
      Hash(input.ToString());
    }
    ++outstanding_;
    clients_[region].Submit(Request{std::move(spec.function), std::move(spec.inputs)},
                            [this, index](Outcome outcome) { OnOutcome(index, outcome); });
    ScheduleNextArrival(due);
  }

  void Classify(const RequestSpec& spec, Arrival* arrival) {
    const std::string& fn = spec.function;
    if (fn == "forum_interact") {
      arrival->check = CheckKind::kVote;
      AddCheckKey(arrival, "vote:" + spec.inputs[1].AsString() + ":" + spec.inputs[0].AsString());
    } else if (fn == "forum_post" || fn == "social_post") {
      arrival->check = CheckKind::kPostRow;
      AddCheckKey(arrival, "post:" + spec.inputs[1].AsString());
    } else if (fn == "hotel_book") {
      arrival->check = CheckKind::kBooking;
      const Key key = "avail:" + spec.inputs[1].AsString() + ":" + spec.inputs[2].AsString();
      const auto [it, inserted] =
          booking_key_.try_emplace(key, static_cast<uint32_t>(check_keys_.size()));
      if (inserted) {
        check_keys_.push_back(key);
        // Bookings are the only writers of availability, so the first
        // booking of a (hotel, date) sees the seeded value.
        const std::optional<Item> item = deployment_->primary().Peek(key);
        seeded_avail_[it->second] = item.has_value() ? item->value.AsInt() : 0;
      }
      arrival->check_key = it->second;
    }
  }

  void AddCheckKey(Arrival* arrival, Key key) {
    arrival->check_key = static_cast<uint32_t>(check_keys_.size());
    check_keys_.push_back(std::move(key));
  }

  void OnOutcome(uint32_t index, const Outcome& outcome) {
    Arrival& a = arrivals_[index];
    if (outcome.preview()) {
      return;  // Not requested; the final still follows.
    }
    if (++a.finals > 1) {
      return;
    }
    --outstanding_;
    a.replied = sim_->Now();
    a.status = outcome.status;
    a.booked = a.check == CheckKind::kBooking && outcome.result.is_int() &&
               outcome.result.AsInt() != 0;
  }

  void CrashLeader() {
    RaftCluster& cluster = deployment_->replicated_locks()->cluster();
    const NodeId leader = cluster.LeaderId();
    if (leader < 0) {
      Violation("no Raft leader to crash");
      return;
    }
    cluster.CrashNode(leader);
    sim_->Schedule(Seconds(1), [&cluster, leader] { cluster.RestartNode(leader); });
  }

  void Hash(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      arrival_hash_ = (arrival_hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Hash(const std::string& s) {
    for (const char c : s) {
      arrival_hash_ = (arrival_hash_ ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    }
    Hash(s.size());
  }

  // Moves the collected spans into per-name samples.
  void Fold() {
    if (!traced_) {
      return;
    }
    const SimTime from = base_ + warmup_;
    for (const obs::Span& span : spans_.spans()) {
      if (span.start < from || span.start >= arrival_end_) {
        continue;
      }
      span_samples_[span.name].Add(span.duration);
      if (keep_perfetto_ && span.start < from + kPerfettoWindow) {
        perfetto_.Add(span);
      }
    }
    spans_.Clear();
  }

  // The sum over all trials of a counter's growth.
  uint64_t TrialSum(uint64_t Snapshot::*counter) const {
    uint64_t sum = 0;
    for (const auto& [before, after] : trial_counts_) {
      sum += after.*counter - before.*counter;
    }
    return sum;
  }

  Snapshot Take() const {
    const obs::MetricsRegistry& reg = sim_->metrics();
    Snapshot s;
    s.events = sim_->events_fired();
    s.wan_msgs = net_->messages_sent();
    s.wan_bytes = net_->wan_bytes_sent();
    s.validate_ok = deployment_->server().validations_succeeded();
    s.validate_fail = deployment_->server().validations_failed();
    s.reexecutions = deployment_->server().reexecutions();
    if (deployment_->local_locks() != nullptr) {
      s.lock_waits = deployment_->local_locks()->table().waits();
    }
    for (const Region region : DeploymentRegions()) {
      Runtime& runtime = deployment_->runtime(region);
      s.speculations += runtime.counters().Get("speculations");
      s.validated_speculative += runtime.counters().Get("validated_speculative");
      s.retries += runtime.counters().Get("retries");
      s.cache_hits += runtime.cache().hits();
      s.cache_misses += runtime.cache().misses();
    }
    s.primary_reads = deployment_->primary().reads();
    s.primary_writes = deployment_->primary().writes();
    if (ReplicatedLockService* locks = deployment_->replicated_locks()) {
      RaftCluster& cluster = locks->cluster();
      s.mesh_msgs = cluster.mesh().messages_sent();
      s.raft_appends =
          reg.CounterValue(cluster.mesh().fabric().metrics_prefix() + ".kind.raft_append.sent");
      for (int id = 0; id < cluster.size(); ++id) {
        const RaftNode* node = cluster.node(id);
        s.raft_commits = std::max<uint64_t>(s.raft_commits, node->commit_index());
        s.raft_term = std::max<uint64_t>(s.raft_term, node->term());
      }
      s.acquire_resubmits = locks->acquire_resubmits();
      s.release_retries = locks->release_retries();
    }
    return s;
  }

  void WriteLayers(obs::JsonWriter* w) const {
    const double reqs = std::max<double>(1.0, static_cast<double>(arrivals_.size()));
    auto count = [this](uint64_t Snapshot::*counter) {
      return static_cast<double>(TrialSum(counter));
    };
    auto per_req = [&](uint64_t Snapshot::*counter) { return count(counter) / reqs; };
    auto pct = [](double num, double denom) { return denom == 0 ? 0.0 : 100.0 * num / denom; };
    w->BeginObject();
    auto put = [w](const char* name, double value) {
      w->Key(name);
      w->Double(value, 9);
    };
    put("sim.events_per_req", per_req(&Snapshot::events));
    put("net.wan_msgs_per_req", per_req(&Snapshot::wan_msgs));
    put("net.wan_bytes_per_req", per_req(&Snapshot::wan_bytes));
    put("net.mesh_msgs_per_req", per_req(&Snapshot::mesh_msgs));
    put("raft.commits_per_req", per_req(&Snapshot::raft_commits));
    const double commits = count(&Snapshot::raft_commits);
    put("raft.appends_per_commit", commits == 0 ? 0.0 : count(&Snapshot::raft_appends) / commits);
    put("raft.elections", count(&Snapshot::raft_term));
    put("raft.acquire_resubmits", count(&Snapshot::acquire_resubmits));
    put("raft.release_retries", count(&Snapshot::release_retries));
    const double ok = count(&Snapshot::validate_ok);
    put("lvi.validation_ok_pct", pct(ok, ok + count(&Snapshot::validate_fail)));
    put("lvi.lock_waits_per_req", per_req(&Snapshot::lock_waits));
    put("lvi.reexecutions", count(&Snapshot::reexecutions));
    put("radical.spec_ok_pct",
        pct(count(&Snapshot::validated_speculative), count(&Snapshot::speculations)));
    put("radical.retries_per_req", per_req(&Snapshot::retries));
    const double hits = count(&Snapshot::cache_hits);
    put("kv.cache_hit_pct", pct(hits, hits + count(&Snapshot::cache_misses)));
    put("kv.primary_reads_per_req", per_req(&Snapshot::primary_reads));
    put("kv.primary_writes_per_req", per_req(&Snapshot::primary_writes));
    w->EndObject();
    w->Key("spans");
    w->BeginObject();
    for (const auto& [name, samples] : span_samples_) {
      const Summary stats = samples.Summarize();
      w->Key(name);
      w->BeginObject();
      w->Key("count");
      w->Uint(stats.count);
      w->Key("p50_ms");
      w->Double(stats.p50_ms, 6);
      w->Key("p99_ms");
      w->Double(stats.p99_ms, 6);
      w->Key("mean_ms");
      w->Double(stats.mean_ms, 9);
      w->EndObject();
    }
    w->EndObject();
  }

  static double PeakRssMb() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
  }

  const Workload& workload_;
  const uint64_t seed_;
  const SimDuration warmup_;
  const SimDuration measure_;
  AppSpec app_;
  Rng rng_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<RadicalDeployment> deployment_;
  WorkloadFn workload_fn_;
  std::vector<Client> clients_;

  int trial_ = 0;
  size_t trial_begin_ = 0;  // Index of the trial's first arrival.
  SimTime base_ = 0;
  SimTime arrival_end_ = 0;
  SimDuration max_lag_ = 0;
  uint64_t arrival_hash_ = 0xCBF29CE484222325ULL;
  uint64_t outstanding_ = 0;
  std::vector<Arrival> arrivals_;
  std::vector<Key> check_keys_;
  std::map<Key, uint32_t> booking_key_;
  std::map<uint32_t, int64_t> seeded_avail_;

  bool traced_ = false;
  bool keep_perfetto_ = false;
  obs::SpanCollector spans_;
  obs::SpanCollector perfetto_;
  std::map<std::string, LatencySampler> span_samples_;

  std::vector<std::pair<Snapshot, Snapshot>> trial_counts_;  // (start, end) per trial.
  struct SetupTimes {
    std::vector<double> setup_s;
    std::vector<double> deploy_build_s;
    std::vector<double> register_s;
    std::vector<double> seed_s;
    std::vector<double> warm_s;
  } setup_times_;
  double run_wall_s_ = 0.0;
  double virtual_s_ = 0.0;

  uint64_t checked_rows_ = 0;
  std::vector<std::string> violations_;
};

// The program under test silently changes shape under these variables
// (src/radical/deployment.cc, src/sim/parallel.cc, bench/bench_util.cc).
constexpr const char* kForbiddenEnv[] = {
    "RADICAL_SHARDS",        "RADICAL_BATCH_WINDOW_US", "RADICAL_REPLICATED_SHARDS",
    "RADICAL_FORCE_SESSIONS", "RADICAL_SIM_THREADS",     "RADICAL_BENCH_SMOKE",
};

int Usage() {
  std::fprintf(stderr,
               "usage: radical_perfbench --workload <name> --seed <n> [--trace] "
               "[--perfetto <path>] [--scale <f>]\n"
               "       radical_perfbench --workload <name> --seed <n> --setup-only\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\nrefuses to run when any of these is set:");
  for (const char* name : kForbiddenEnv) {
    std::fprintf(stderr, " %s", name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::optional<uint64_t> seed;
  bool trace = false;
  bool setup_only = false;
  std::string perfetto;
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scale" && has_value) {
      scale = std::strtod(argv[++i], nullptr);
    } else if (arg == "--perfetto" && has_value) {
      perfetto = argv[++i];
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || !seed.has_value() || !(scale > 0.0 && scale <= 1.0)) {
    return Usage();
  }
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "radical_perfbench: refusing to run with %s set\n", name);
      return 2;
    }
  }

  Bench bench(*workload, *seed, scale);
  if (setup_only) {
    bench.SetUp(kSetups);
    std::printf("%s\n", bench.SetupJson().c_str());
    return 0;
  }
  bench.RunTrials(trace || !perfetto.empty(), !perfetto.empty());
  if (!perfetto.empty() && !bench.WritePerfetto(perfetto)) {
    std::fprintf(stderr, "radical_perfbench: cannot write %s\n", perfetto.c_str());
    return 1;
  }
  std::printf("%s\n", bench.ResultJson().c_str());
  return 0;
}

}  // namespace
}  // namespace radical

int main(int argc, char** argv) { return radical::Main(argc, argv); }
