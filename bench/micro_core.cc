// Microbenchmarks (google-benchmark) for the core data structures: the lock
// table, the versioned store, the interpreter, the analyzer, the event
// queue, and the zipf generator. These measure real CPU time (not virtual
// time) — the simulator's own overhead matters for how large an experiment
// the harness can run.
//
// Besides the google-benchmark suite, main() always runs two hand-timed
// simulator-core loops — steady-state events per host second and fabric
// envelope round-trips per host second — and exports them as the "micro"
// section of BENCH_radical.json (bench_util BenchReport). tools/check.sh
// CHECK_MICRO=1 runs exactly that export and enforces an events/sec floor
// via RADICAL_MICRO_EVENTS_FLOOR, so a regression that reintroduces per-
// event heap traffic fails CI, not just a manual bench run.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/analysis/analyzer.h"
#include "src/apps/apps.h"
#include "src/func/builder.h"
#include "src/kv/versioned_store.h"
#include "src/check/linearizability.h"
#include "src/lvi/codec.h"
#include "src/lvi/lock_service.h"
#include "src/net/network.h"
#include "src/sim/region.h"
#include "src/sim/simulator.h"

namespace radical {
namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  Simulator sim;
  uint64_t i = 0;
  for (auto _ : state) {
    (void)_;
    sim.Schedule(static_cast<SimDuration>(i % 100), [] {});
    if (++i % 64 == 0) {
      sim.Run();
    }
  }
  sim.Run();
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  Simulator sim;
  Network net(&sim, LatencyMatrix::PaperDefault());
  const net::Endpoint& a = net.endpoint(Region::kCA);
  const net::Endpoint& b = net.endpoint(Region::kVA);
  uint64_t i = 0;
  for (auto _ : state) {
    (void)_;
    a.Send(b, net::MessageKind::kLviRequest, 256,
           [&a, &b] { b.Send(a, net::MessageKind::kLviResponse, 512, [] {}); });
    if (++i % 64 == 0) {
      sim.Run();
    }
  }
  sim.Run();
}
BENCHMARK(BM_EnvelopeRoundTrip);

void BM_VersionedStorePut(benchmark::State& state) {
  VersionedStore store;
  uint64_t i = 0;
  for (auto _ : state) {
    (void)_;
    ++i;
    store.Put("key" + std::to_string(i % 1024), Value(static_cast<int64_t>(i)), nullptr);
  }
}
BENCHMARK(BM_VersionedStorePut);

void BM_VersionedStoreBatchGet(benchmark::State& state) {
  VersionedStore store;
  std::vector<Key> keys;
  for (int i = 0; i < state.range(0); ++i) {
    const Key key = "key" + std::to_string(i);
    store.Seed(key, Value(static_cast<int64_t>(i)));
    keys.push_back(key);
  }
  for (auto _ : state) {
    (void)_;
    SimDuration lat = 0;
    benchmark::DoNotOptimize(store.BatchGet(keys, &lat));
  }
}
BENCHMARK(BM_VersionedStoreBatchGet)->Arg(4)->Arg(16)->Arg(64);

void BM_LockTableUncontended(benchmark::State& state) {
  // The singleton server's table, behind the in-memory lock service.
  Simulator sim;
  LockService locks(&sim);
  ExecutionId exec = 1;
  for (auto _ : state) {
    (void)_;
    locks.AcquireAll(exec, {"a", "b", "c"},
                     {LockMode::kRead, LockMode::kWrite, LockMode::kRead}, [] {});
    locks.ReleaseAll(exec);
    ++exec;
    if (exec % 256 == 0) {
      sim.Run();  // Drain zero-delay grant events.
    }
  }
  sim.Run();
}
BENCHMARK(BM_LockTableUncontended);

void BM_InterpreterTimeline(benchmark::State& state) {
  Interpreter interp(&HostRegistry::Standard());
  VersionedStore store;
  ValueList timeline;
  for (int i = 0; i < 20; ++i) {
    timeline.push_back(Value("entry " + std::to_string(i)));
  }
  store.Seed("timeline:u1", Value(timeline));
  const FunctionDef fn = Fn("timeline", {"u"}, {
      Read("tl", Cat({C("timeline:"), In("u")})),
      Return(Take(V("tl"), C(static_cast<int64_t>(10)))),
  });
  const std::vector<Value> inputs = {Value("u1")};
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(interp.Execute(fn, inputs, &store));
  }
}
BENCHMARK(BM_InterpreterTimeline);

void BM_InterpreterFanout(benchmark::State& state) {
  Interpreter interp(&HostRegistry::Standard());
  VersionedStore store;
  ValueList followers;
  for (int i = 0; i < state.range(0); ++i) {
    followers.push_back(Value("u" + std::to_string(i)));
  }
  store.Seed("followers:u0", Value(followers));
  const FunctionDef fn = Fn("post", {"u", "text"}, {
      Read("fs", Cat({C("followers:"), In("u")})),
      ForEach("f", V("fs"), {
          Read("tl", Cat({C("timeline:"), V("f")})),
          Write(Cat({C("timeline:"), V("f")}), Append(V("tl"), In("text"))),
      }),
      Return(C(static_cast<int64_t>(1))),
  });
  const std::vector<Value> inputs = {Value("u0"), Value("hello")};
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(interp.Execute(fn, inputs, &store));
  }
}
BENCHMARK(BM_InterpreterFanout)->Arg(8)->Arg(64);

void BM_AnalyzerSliceSocialPost(benchmark::State& state) {
  Analyzer analyzer(&HostRegistry::Standard());
  const AppSpec app = MakeSocialApp();
  const FunctionDef& fn = app.Find("social_post")->def;
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(analyzer.Analyze(fn));
  }
}
BENCHMARK(BM_AnalyzerSliceSocialPost);

void BM_PredictRwSet(benchmark::State& state) {
  Analyzer analyzer(&HostRegistry::Standard());
  Interpreter interp(&HostRegistry::Standard());
  const AppSpec app = MakeSocialApp();
  const AnalyzedFunction analyzed = analyzer.Analyze(app.Find("social_post")->def);
  CacheStore cache;
  ValueList followers;
  for (int i = 0; i < 8; ++i) {
    followers.push_back(Value("u" + std::to_string(i)));
  }
  cache.Install("followers:u0", Value(followers), 1);
  const std::vector<Value> inputs = {Value("u0"), Value("p1"), Value("hello")};
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(PredictRwSet(analyzed, inputs, &cache, interp));
  }
}
BENCHMARK(BM_PredictRwSet);

void BM_CodecEncodeRequest(benchmark::State& state) {
  LviRequest request;
  request.exec_id = 1;
  request.origin = Region::kCA;
  request.function = "social_post";
  request.inputs = {Value("u1"), Value("p1"), Value("hello world")};
  for (int i = 0; i < 10; ++i) {
    request.items.push_back(LviItem{"timeline:u" + std::to_string(i), 3, LockMode::kWrite});
  }
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(EncodeLviRequest(request));
  }
}
BENCHMARK(BM_CodecEncodeRequest);

void BM_CodecDecodeRequest(benchmark::State& state) {
  LviRequest request;
  request.exec_id = 1;
  request.origin = Region::kCA;
  request.function = "social_post";
  request.inputs = {Value("u1"), Value("p1"), Value("hello world")};
  for (int i = 0; i < 10; ++i) {
    request.items.push_back(LviItem{"timeline:u" + std::to_string(i), 3, LockMode::kWrite});
  }
  const WireBuffer buffer = EncodeLviRequest(request);
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(DecodeLviRequest(buffer));
  }
}
BENCHMARK(BM_CodecDecodeRequest);

void BM_LinearizabilityCheck(benchmark::State& state) {
  // A realistically contended per-key history.
  Rng rng(7);
  std::vector<HistoryOp> ops;
  for (int i = 0; i < state.range(0); ++i) {
    HistoryOp op;
    op.is_write = rng.NextBool(0.5);
    op.key = "k";
    op.value = Value("w" + std::to_string(op.is_write ? i : static_cast<int>(
                                                            rng.NextBelow(
                                                                static_cast<uint64_t>(i) + 1))));
    op.invoke = static_cast<SimTime>(i) * 10;
    op.response = op.invoke + 25;  // Overlapping windows.
    ops.push_back(op);
  }
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(CheckRegisterHistory(ops, Value()));
  }
}
BENCHMARK(BM_LinearizabilityCheck)->Arg(10)->Arg(20);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(100000, 0.99);
  Rng rng(1);
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

// --- BENCH_radical.json "micro" export ---------------------------------------

// Hand-timed (steady_clock) rather than read back out of google-benchmark:
// the export must not depend on reporter formats, and a plain loop over the
// same operations is the measurement downstream scripts actually consume.

MicroResult MeasureSteadyStateEvents() {
  Simulator sim;
  const uint64_t iterations = BenchSmokeMode() ? 200'000 : 2'000'000;
  auto drive = [&sim](uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      sim.Schedule(static_cast<SimDuration>(i % 100), [] {});
      if ((i + 1) % 64 == 0) {
        sim.Run();
      }
    }
    sim.Run();
  };
  drive(iterations / 10);  // Warm the node slab to its high-water mark.
  const auto start = std::chrono::steady_clock::now();
  drive(iterations);
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  MicroResult r;
  r.name = "sim_events_steady_state";
  r.iterations = iterations;
  r.ns_per_op = seconds * 1e9 / static_cast<double>(iterations);
  r.ops_per_sec = static_cast<double>(iterations) / seconds;
  return r;
}

MicroResult MeasureEnvelopeRoundTrip() {
  Simulator sim;
  Network net(&sim, LatencyMatrix::PaperDefault());
  const net::Endpoint& a = net.endpoint(Region::kCA);
  const net::Endpoint& b = net.endpoint(Region::kVA);
  const uint64_t iterations = BenchSmokeMode() ? 20'000 : 500'000;
  auto drive = [&](uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      a.Send(b, net::MessageKind::kLviRequest, 256,
             [&a, &b] { b.Send(a, net::MessageKind::kLviResponse, 512, [] {}); });
      if ((i + 1) % 64 == 0) {
        sim.Run();
      }
    }
    sim.Run();
  };
  drive(iterations / 10);  // Warm channels, counters, and the event slab.
  const auto start = std::chrono::steady_clock::now();
  drive(iterations);
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  MicroResult r;
  r.name = "envelope_round_trip";
  r.iterations = iterations;
  r.ns_per_op = seconds * 1e9 / static_cast<double>(iterations);
  r.ops_per_sec = static_cast<double>(iterations) / seconds;
  return r;
}

// Runs both loops, writes the report, and enforces the optional events/sec
// floor (RADICAL_MICRO_EVENTS_FLOOR). Returns the process exit status.
int ExportMicroReport() {
  BenchReport report("micro_core");
  const MicroResult events = MeasureSteadyStateEvents();
  const MicroResult round_trip = MeasureEnvelopeRoundTrip();
  report.AddMicro(events);
  report.AddMicro(round_trip);
  const std::string path = report.Write();
  std::printf("\nmicro: %s %.1f ns/op (%.0f ops/s)\n", events.name.c_str(), events.ns_per_op,
              events.ops_per_sec);
  std::printf("micro: %s %.1f ns/op (%.0f ops/s)\n", round_trip.name.c_str(),
              round_trip.ns_per_op, round_trip.ops_per_sec);
  if (!path.empty()) {
    std::printf("micro: report written to %s\n", path.c_str());
  }
  const char* floor_env = std::getenv("RADICAL_MICRO_EVENTS_FLOOR");
  if (floor_env != nullptr && *floor_env != '\0') {
    const double floor = std::strtod(floor_env, nullptr);
    if (events.ops_per_sec < floor) {
      std::fprintf(stderr, "micro: FAIL %s %.0f ops/s below floor %.0f\n", events.name.c_str(),
                   events.ops_per_sec, floor);
      return 1;
    }
    std::printf("micro: %s above floor %.0f ops/s\n", events.name.c_str(), floor);
  }
  return 0;
}

}  // namespace
}  // namespace radical

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return radical::ExportMicroReport();
}
