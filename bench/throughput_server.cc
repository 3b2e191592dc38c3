// Server throughput (§5.3 discussion): "the only bottleneck Radical
// introduces is the singleton LVI server". This bench gives that claim a
// load-latency curve: with a finite serving capacity, end-to-end latency is
// flat until the offered load approaches the server's capacity, then
// queueing blows up the tail — the classic saturation knee. Below the knee,
// Radical's throughput equals the baseline's (the server adds no other
// limit), which is why the paper reports no separate throughput results.
//
// The scaling sections then measure the remedy this repo adds on top of the
// paper: sharding the server's admission/lock/intent hot path (LviServer
// `shards`); every shard validates each request the moment its locks are
// granted, as the paper's singleton does. Both a closed-loop sweep (fixed
// client population per configuration) and an open-loop sweep (fixed
// arrival rate, no flow control — the honest saturation measurement) export
// a throughput-vs-shards curve into BENCH_radical.json (schema_version 2,
// "curves").
//
//   throughput_server [--shards=N] [--clients=C]
//
// --shards pins the sweep to one shard count (default sweeps 1,2,4,8),
// --clients the closed-loop clients per region (default 16).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/func/builder.h"

namespace radical {
namespace {

struct LoadPoint {
  double offered_rps;
  Summary latency;
  uint64_t queued;
};

LoadPoint MeasureAtLoad(int clients_per_region, SimDuration think, uint64_t capacity_rps) {
  Simulator sim(8600 + static_cast<uint64_t>(clients_per_region));
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;
  config.server.serving_capacity_rps = capacity_rps;
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions());
  const AppSpec app = MakeSocialApp();
  app.RegisterAll(&radical);
  app.seed(&radical);
  radical.WarmCaches();
  LoadGeneratorOptions load;
  load.clients_per_region = clients_per_region;
  load.requests_per_client = 60;
  load.think_time = think;
  LoadGenerator generator(&sim, &radical, DeploymentRegions(), app.make_workload(), load);
  const SimTime start = sim.Now();
  generator.Start();
  sim.Run();
  LoadPoint point;
  point.latency = generator.Overall().Summarize();
  const double duration_s = ToMillis(sim.Now() - start) / 1000.0;
  point.offered_rps = duration_s > 0
                          ? static_cast<double>(generator.total_requests()) / duration_s
                          : 0.0;
  point.queued = radical.server().counters().Get("queued_arrivals");
  return point;
}

void Run() {
  constexpr uint64_t kCapacity = 600;  // Requests/second the singleton serves.
  std::printf("LVI server saturation: capacity %llu req/s, social media workload\n\n",
              static_cast<unsigned long long>(kCapacity));
  const std::vector<int> widths = {14, 11, 10, 10, 10, 12};
  PrintTableHeader({"clients total", "load req/s", "p50 ms", "p90 ms", "p99 ms",
                    "queued msgs"},
                   widths);
  // Closed-loop load sweep: more clients with shorter think times.
  const std::vector<std::pair<int, SimDuration>> points = {
      {4, Millis(500)},  {10, Millis(300)}, {20, Millis(150)},
      {30, Millis(60)},  {40, Millis(20)},  {50, Millis(5)},
  };
  for (const auto& [clients, think] : points) {
    const LoadPoint point = MeasureAtLoad(clients, think, kCapacity);
    PrintTableRow({std::to_string(clients * 5), Ms(point.offered_rps, 0),
                   Ms(point.latency.p50_ms), Ms(point.latency.p90_ms),
                   Ms(point.latency.p99_ms), std::to_string(point.queued)},
                  widths);
  }
  PrintRule(widths);
  std::printf(
      "\nShape: latency is flat while offered load stays below the server's\n"
      "capacity, then the queue builds and the tail explodes — the singleton LVI\n"
      "server is the bottleneck, and replicating it (§5.6) is the remedy.\n");
}

// Per-link queueing under constrained WAN bandwidth: rerun the heaviest load
// point with finite-bandwidth WAN links and report the fabric's per-channel
// queueing-delay percentiles — the links into the LVI server (near the
// primary in VA) carry every request and queue first.
void RunLinkQueueing() {
  constexpr uint64_t kWanBandwidth = 64 * 1024;  // 64 KiB/s per WAN link.
  std::printf("\nPer-link queueing at high load, WAN links capped at %llu KiB/s\n\n",
              static_cast<unsigned long long>(kWanBandwidth / 1024));
  Simulator sim(8700);
  NetworkOptions net_options;
  net_options.wan_bandwidth_bytes_per_sec = kWanBandwidth;
  Network net(&sim, LatencyMatrix::PaperDefault(), net_options);
  RadicalConfig config;
  config.server.serving_capacity_rps = 600;
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions());
  const AppSpec app = MakeSocialApp();
  app.RegisterAll(&radical);
  app.seed(&radical);
  radical.WarmCaches();
  LoadGeneratorOptions load;
  load.clients_per_region = 40;
  load.requests_per_client = 60;
  load.think_time = Millis(20);
  LoadGenerator generator(&sim, &radical, DeploymentRegions(), app.make_workload(), load);
  generator.Start();
  sim.Run();
  const std::vector<int> link_widths = {26, 8, 12, 11, 11, 11};
  PrintTableHeader({"link", "msgs", "bytes", "queue p50", "queue p90", "queue p99"},
                   link_widths);
  net.fabric().ForEachChannel([&](const net::Channel& ch) {
    const net::LinkStats& stats = ch.stats();
    if (!ch.wan() || stats.queue_delay.empty() || stats.queue_delay.PercentileMs(99) <= 0.0) {
      return;
    }
    const std::string link = net.fabric().info(ch.from()).name + " -> " +
                             net.fabric().info(ch.to()).name;
    PrintTableRow({link, std::to_string(stats.messages_sent), std::to_string(stats.bytes_sent),
                   Ms(stats.queue_delay.PercentileMs(50)), Ms(stats.queue_delay.PercentileMs(90)),
                   Ms(stats.queue_delay.PercentileMs(99))},
                  link_widths);
  });
  PrintRule(link_widths);
  std::printf(
      "\nThe LVI server's response links queue hardest: responses carry fresh\n"
      "items for cache repair, so the server -> runtime direction moves more\n"
      "bytes than the requests. End-to-end p99 under the cap: %.1f ms.\n",
      generator.Overall().PercentileMs(99));
}

// --- Sharded scaling sweeps --------------------------------------------------

struct ScalingFlags {
  std::vector<int> shard_counts = {1, 2, 4, 8};
  int clients_per_region = 16;
};

// Uniform reads with a 10% single-key read-modify-write mix, over a keyspace
// wide enough that the shards see even load, lock conflicts are rare, and
// cache staleness stays at its steady-state level — the workload that
// isolates the server's admission capacity from application contention.
// (A write-heavy mix under overload measures validation collapse instead:
// every queued millisecond widens the window in which a concurrent write
// invalidates the speculation, and the backup path swamps the servers.)
constexpr int kScalingKeys = 8192;
constexpr double kScalingWriteFraction = 0.1;

FunctionDef ScalingWriteFunction() {
  return Fn("bump", {"k"},
            {Read("v", In("k")), Write(In("k"), Add(V("v"), C(Value(static_cast<int64_t>(1))))),
             Return(V("v"))});
}

FunctionDef ScalingReadFunction() {
  return Fn("peek", {"k"}, {Read("v", In("k")), Return(V("v"))});
}

std::string ScalingKey(uint64_t i) { return "ctr/" + std::to_string(i % kScalingKeys); }

RequestSpec ScalingRequest(Rng& rng) {
  const std::string function = rng.NextBool(kScalingWriteFraction) ? "bump" : "peek";
  return RequestSpec{function, {Value(ScalingKey(rng.Next()))}};
}

RadicalConfig ScalingConfig(int shards) {
  RadicalConfig config;
  config.server.serving_capacity_rps = 600;  // Per shard: admission scales out.
  config.server.shards = shards;
  return config;
}

void SeedScalingKeys(RadicalDeployment* radical) {
  for (int i = 0; i < kScalingKeys; ++i) {
    radical->Seed(ScalingKey(static_cast<uint64_t>(i)), Value(static_cast<int64_t>(0)));
  }
}

// Closed loop, weak scaling: the client population grows with the shard
// count (each point runs `clients_per_region * shards` clients per region),
// so every configuration is offered the same load *per shard*. Throughput
// then scales with the shard count while per-request latency stays flat —
// the signature of a hot path that actually partitioned.
ThroughputPoint MeasureClosedLoop(int shards, int clients_per_region) {
  Simulator sim(9100 + static_cast<uint64_t>(shards));
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalDeployment radical(&sim, &net, ScalingConfig(shards), DeploymentRegions());
  radical.RegisterFunction(ScalingWriteFunction());
  radical.RegisterFunction(ScalingReadFunction());
  SeedScalingKeys(&radical);
  radical.WarmCaches();
  LoadGeneratorOptions load;
  load.clients_per_region = clients_per_region * shards;
  load.requests_per_client = BenchSmokeMode() ? 5 : 80;
  load.think_time = Millis(5);
  WorkloadFn workload = [](Rng& rng) { return ScalingRequest(rng); };
  LoadGenerator generator(&sim, &radical, DeploymentRegions(), workload, load);
  generator.Start();
  sim.Run();
  const Summary latency = generator.Overall().Summarize();
  const double duration_s = static_cast<double>(sim.Now()) / 1e6;
  ThroughputPoint point;
  point.shards = shards;
  point.clients = clients_per_region * shards * static_cast<int>(DeploymentRegions().size());
  point.throughput_rps =
      duration_s > 0 ? static_cast<double>(generator.total_requests()) / duration_s : 0.0;
  point.offered_rps = point.throughput_rps;  // Closed loop: arrival == completion.
  point.aborts = radical.server().counters().Get("validate_fail");
  point.reexecutions = radical.server().counters().Get("reexecute");
  const uint64_t completed = generator.total_requests();
  const uint64_t good = completed > point.reexecutions ? completed - point.reexecutions : 0;
  point.goodput_rps = duration_s > 0 ? static_cast<double>(good) / duration_s : 0.0;
  point.p50_ms = latency.p50_ms;
  point.p90_ms = latency.p90_ms;
  point.p99_ms = latency.p99_ms;
  return point;
}

// Open loop: arrivals at a fixed rate regardless of completions — offered
// load at 1.2x each configuration's aggregate capacity, so every point runs
// slightly past saturation and the measured completion rate is the server's
// saturation throughput (the run drains its backlog before measuring).
// Requests go through the Client facade with retries and tracing off: a
// retry would double-count offered load, and per-request traces are pure
// overhead here.
ThroughputPoint MeasureOpenLoop(int shards) {
  Simulator sim(9300 + static_cast<uint64_t>(shards));
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalDeployment radical(&sim, &net, ScalingConfig(shards), DeploymentRegions());
  radical.RegisterFunction(ScalingWriteFunction());
  radical.RegisterFunction(ScalingReadFunction());
  SeedScalingKeys(&radical);
  radical.WarmCaches();

  const double offered_rps = 1.2 * 600.0 * shards;
  const SimDuration window = BenchSmokeMode() ? Millis(200) : Seconds(5);
  const SimDuration interarrival =
      static_cast<SimDuration>(1e6 / offered_rps);  // Microsecond virtual clock.
  RequestOptions options;
  options.retry = RetryPolicy{};
  options.retry->enabled = false;
  options.trace = false;
  uint64_t offered = 0;
  uint64_t completed = 0;
  LatencySampler sampler;
  Rng rng(42);
  const std::vector<Region>& regions = DeploymentRegions();
  for (SimDuration at = 0; at < window; at += interarrival) {
    const Region region = regions[rng.NextBelow(regions.size())];
    const RequestSpec spec = ScalingRequest(rng);
    ++offered;
    sim.Schedule(at, [&, region, spec] {
      const SimTime start = sim.Now();
      radical.client(region).Submit(Request{spec.function, spec.inputs}, options,
                                    [&, start](Outcome) {
                                      ++completed;
                                      sampler.Add(sim.Now() - start);
                                    });
    });
  }
  sim.Run();
  const Summary latency = sampler.Summarize();
  const double duration_s = static_cast<double>(sim.Now()) / 1e6;
  ThroughputPoint point;
  point.shards = shards;
  point.clients = 0;
  point.offered_rps = offered_rps;
  point.throughput_rps = duration_s > 0 ? static_cast<double>(completed) / duration_s : 0.0;
  // Past saturation, completions alone overstate useful work: a completion
  // whose speculation was invalidated paid an abort + re-execution round.
  // Goodput counts only first-validation successes.
  point.aborts = radical.server().counters().Get("validate_fail");
  point.reexecutions = radical.server().counters().Get("reexecute");
  const uint64_t good = completed > point.reexecutions ? completed - point.reexecutions : 0;
  point.goodput_rps = duration_s > 0 ? static_cast<double>(good) / duration_s : 0.0;
  point.p50_ms = latency.p50_ms;
  point.p90_ms = latency.p90_ms;
  point.p99_ms = latency.p99_ms;
  (void)offered;
  return point;
}

// --- Overload-control saturation sweep ---------------------------------------

// Open-loop load at a fixed multiple of the singleton server's capacity,
// with overload control off (the historical unbounded-queue behaviour) or on
// (bounded admission queue + per-request deadlines). The uncontrolled server
// accepts everything and queues it: past the knee every admitted request
// pays the whole backlog in latency, and p99 grows without bound as the
// multiplier rises. The controlled server rejects at the door once the
// admission queue is full, so the work it does accept completes at its
// normal latency — goodput stays flat at capacity and p99 stays bounded by
// the queue limit, which is the entire point of the subsystem.
ThroughputPoint MeasureOverload(double multiplier, bool control) {
  Simulator sim(9500 + static_cast<uint64_t>(multiplier * 100.0) + (control ? 1 : 0));
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;
  config.server.serving_capacity_rps = 600;
  if (control) {
    config.server.admission_queue_limit = 64;  // ~107 ms of backlog, max.
  }
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions());
  radical.RegisterFunction(ScalingWriteFunction());
  radical.RegisterFunction(ScalingReadFunction());
  SeedScalingKeys(&radical);
  radical.WarmCaches();

  const double offered_rps = multiplier * 600.0;
  const SimDuration window = BenchSmokeMode() ? Millis(200) : Seconds(5);
  const SimDuration interarrival = static_cast<SimDuration>(1e6 / offered_rps);
  RequestOptions options;
  options.retry = RetryPolicy{};
  options.retry->enabled = false;  // Open loop: a retry double-counts load.
  options.trace = false;
  if (control) {
    // Wide enough that in-deadline work is never shed below the knee; the
    // bounded queue, not the deadline, is the primary control here.
    options.deadline = Millis(800);
  }
  uint64_t ok = 0;
  uint64_t rejected_done = 0;
  uint64_t deadline_done = 0;
  LatencySampler sampler;
  Rng rng(42);
  const std::vector<Region>& regions = DeploymentRegions();
  for (SimDuration at = 0; at < window; at += interarrival) {
    const Region region = regions[rng.NextBelow(regions.size())];
    const RequestSpec spec = ScalingRequest(rng);
    sim.Schedule(at, [&, region, spec] {
      const SimTime start = sim.Now();
      radical.client(region).Submit(Request{spec.function, spec.inputs}, options,
                                    [&, start](Outcome outcome) {
                                      if (outcome.ok()) {
                                        ++ok;
                                        sampler.Add(sim.Now() - start);
                                      } else if (outcome.status == RequestStatus::kRejected) {
                                        ++rejected_done;
                                      } else {
                                        ++deadline_done;
                                      }
                                    });
    });
  }
  sim.Run();
  const Summary latency = sampler.Summarize();
  const double duration_s = static_cast<double>(sim.Now()) / 1e6;
  ThroughputPoint point;
  point.shards = 1;
  point.clients = 0;
  point.offered_rps = offered_rps;
  point.overload_control = control;
  // Throughput counts only requests that produced a result — a rejection is
  // a completion for the client but not work done by the server.
  point.throughput_rps = duration_s > 0 ? static_cast<double>(ok) / duration_s : 0.0;
  point.aborts = radical.server().counters().Get("validate_fail");
  point.reexecutions = radical.server().counters().Get("reexecute");
  const uint64_t good = ok > point.reexecutions ? ok - point.reexecutions : 0;
  point.goodput_rps = duration_s > 0 ? static_cast<double>(good) / duration_s : 0.0;
  point.rejected = radical.server().counters().Get("rejected_overload");
  point.shed = radical.server().counters().Get("shed_total");
  point.deadline_exceeded = deadline_done;
  const obs::Gauge* peak = radical.server().counters().gauge("queue_depth_peak");
  point.queue_depth_peak = peak != nullptr && peak->value() > 0
                               ? static_cast<uint64_t>(peak->value())
                               : 0;
  point.p50_ms = latency.p50_ms;
  point.p90_ms = latency.p90_ms;
  point.p99_ms = latency.p99_ms;
  (void)rejected_done;
  return point;
}

void RunOverload(BenchReport* report) {
  std::printf("\nOverload control: open-loop saturation sweep, capacity 600 req/s, "
              "singleton server\n(off = unbounded queue; on = admission queue limit 64 + "
              "800 ms deadlines)\n\n");
  const std::vector<double> multipliers =
      BenchSmokeMode() ? std::vector<double>{0.8, 1.5}
                       : std::vector<double>{0.5, 0.8, 1.0, 1.2, 1.5, 2.0};
  const std::vector<int> widths = {8, 9, 12, 12, 10, 8, 10, 10, 10, 10};
  ThroughputCurve off{"open_loop_overload_uncontrolled", {}};
  ThroughputCurve on{"open_loop_overload_controlled", {}};
  for (const bool control : {false, true}) {
    std::printf("overload control %s:\n", control ? "ON" : "OFF");
    PrintTableHeader({"offered", "tput", "good req/s", "rejected", "shed", "queue",
                      "ddl_exc", "p50 ms", "p90 ms", "p99 ms"},
                     widths);
    for (const double multiplier : multipliers) {
      const ThroughputPoint p = MeasureOverload(multiplier, control);
      (control ? on : off).points.push_back(p);
      PrintTableRow({Ms(p.offered_rps, 0), Ms(p.throughput_rps, 0), Ms(p.goodput_rps, 0),
                     std::to_string(p.rejected), std::to_string(p.shed),
                     std::to_string(p.queue_depth_peak), std::to_string(p.deadline_exceeded),
                     Ms(p.p50_ms), Ms(p.p90_ms), Ms(p.p99_ms)},
                    widths);
    }
    PrintRule(widths);
    std::printf("\n");
  }
  std::printf(
      "Uncontrolled, every point past the knee pays the whole backlog in tail\n"
      "latency. Controlled, the admission queue is bounded: excess arrivals are\n"
      "rejected at the door with a retry-after hint, goodput holds at capacity,\n"
      "and p99 stays within the queue limit's worth of waiting.\n");
  report->AddCurve(std::move(off));
  report->AddCurve(std::move(on));
}

void RunScaling(const ScalingFlags& flags, BenchReport* report) {
  std::printf("\nSharded-server scaling: %llu req/s serving capacity per shard, "
              "uniform 90/10 read/rmw over %d keys\n"
              "(closed loop, weak scaling: %d clients/region per shard)\n\n",
              600ull, kScalingKeys, flags.clients_per_region);
  const std::vector<int> widths = {7, 9, 12, 12, 12, 8, 8, 10, 10, 10};
  PrintTableHeader({"shards", "clients", "offered", "tput req/s", "good req/s", "aborts",
                    "reexec", "p50 ms", "p90 ms", "p99 ms"},
                   widths);
  ThroughputCurve closed{"closed_loop_scaling", {}};
  for (const int shards : flags.shard_counts) {
    const ThroughputPoint p = MeasureClosedLoop(shards, flags.clients_per_region);
    closed.points.push_back(p);
    PrintTableRow({std::to_string(p.shards), std::to_string(p.clients), Ms(p.offered_rps, 0),
                   Ms(p.throughput_rps, 0), Ms(p.goodput_rps, 0), std::to_string(p.aborts),
                   std::to_string(p.reexecutions), Ms(p.p50_ms), Ms(p.p90_ms), Ms(p.p99_ms)},
                  widths);
  }
  PrintRule(widths);
  std::printf("\nOpen loop (fixed arrival rate at 1.2x aggregate capacity, retries off):\n\n");
  PrintTableHeader({"shards", "clients", "offered", "tput req/s", "good req/s", "aborts",
                    "reexec", "p50 ms", "p90 ms", "p99 ms"},
                   widths);
  ThroughputCurve open{"open_loop_scaling", {}};
  for (const int shards : flags.shard_counts) {
    const ThroughputPoint p = MeasureOpenLoop(shards);
    open.points.push_back(p);
    PrintTableRow({std::to_string(p.shards), "-", Ms(p.offered_rps, 0), Ms(p.throughput_rps, 0),
                   Ms(p.goodput_rps, 0), std::to_string(p.aborts),
                   std::to_string(p.reexecutions), Ms(p.p50_ms), Ms(p.p90_ms), Ms(p.p99_ms)},
                  widths);
  }
  PrintRule(widths);
  std::printf(
      "\nSaturation throughput scales with the shard count: each shard owns an\n"
      "independent admission queue and lock table, and validates each request\n"
      "the moment its locks are granted.\n");
  report->AddCurve(std::move(closed));
  report->AddCurve(std::move(open));
}

ScalingFlags ParseFlags(int argc, char** argv) {
  ScalingFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--shards=", 9) == 0) {
      const int shards = std::atoi(arg + 9);
      if (shards >= 1) {
        flags.shard_counts = {shards};
      }
    } else if (std::strncmp(arg, "--clients=", 10) == 0) {
      const int clients = std::atoi(arg + 10);
      if (clients >= 1) {
        flags.clients_per_region = clients;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
    }
  }
  return flags;
}

}  // namespace
}  // namespace radical

int main(int argc, char** argv) {
  const radical::ScalingFlags flags = radical::ParseFlags(argc, argv);
  radical::Run();
  radical::RunLinkQueueing();
  radical::BenchReport report("throughput_server");
  radical::RunScaling(flags, &report);
  radical::RunOverload(&report);
  const std::string path = report.Write();
  if (!path.empty()) {
    std::printf("\nwrote %s\n", path.c_str());
  }
  return 0;
}
