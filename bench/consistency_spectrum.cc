// Consistency spectrum (sessions, previews, PoP failover): what the
// radical::Session surface buys and what it costs.
//
// Two experiments, both exported as "curves" into BENCH_radical.json
// (session_point group; tools/bench_json_check validates the shape):
//
//  - preview_vs_final: each Table 1 application driven through sessions in
//    every deployment location. Previews (Correctables-style tentative
//    results from the speculative edge execution) must land strictly below
//    the validated finals on the latency axis at no cost in final
//    correctness — every request resolves to exactly one authoritative
//    final. preview_accuracy_pct reports how often the tentative value
//    already equaled the final one (the cache-hit/validation-success story
//    from a client's perspective).
//
//  - session_failover: closed-loop session readers against a key a writer
//    keeps advancing, with a mid-run PoP kill (Runtime::Crash) under the
//    busiest location. SwiftCloud-style re-binding must answer 100% of the
//    submitted requests with exactly one final each, and no session may
//    observe the key's value move backwards (monotonic reads) even though
//    the survivors' caches are colder than the dead PoP's floor.
//
// The binary exits nonzero when any of those invariants is violated, so
// tools/check.sh (CHECK_SESSION=1) can gate on it.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/func/builder.h"
#include "src/radical/session.h"

namespace radical {
namespace {

int g_violations = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "VIOLATION: %s\n", what);
    ++g_violations;
  }
}

// --- preview_vs_final --------------------------------------------------------

struct PreviewStats {
  uint64_t issued = 0;
  uint64_t finals = 0;
  uint64_t previews = 0;
  uint64_t preview_matches = 0;  // Preview value == final value.
  LatencySampler final_latency;
  LatencySampler preview_latency;
  // Finals restricted to previewed requests: the apples-to-apples population
  // for the preview-beats-final claim. (A request whose validation response
  // lands before its speculation finishes never previews — the preview would
  // arrive with or after the final — so the unrestricted populations differ.)
  LatencySampler final_of_previewed;
  LatencySampler gap;  // final - preview, per request that previewed.
};

ThroughputPoint MeasurePreviewCurve(const AppSpec& app, uint64_t seed) {
  Simulator sim(seed);
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalDeployment radical(&sim, &net, RadicalConfig{}, DeploymentRegions());
  app.RegisterAll(&radical);
  app.seed(&radical);
  radical.WarmCaches();
  WorkloadFn workload = app.make_workload();
  Rng rng(seed * 17 + 3);

  const uint64_t per_session = BenchSmokeMode() ? 6 : 60;
  auto stats = std::make_shared<PreviewStats>();

  // One closed-loop session per deployment location: the next request leaves
  // when the previous final lands (previews never advance the loop). Each
  // loop holds itself; they are cleared after the run, which frees them.
  std::vector<std::shared_ptr<std::function<void(uint64_t)>>> loops;
  for (const Region region : DeploymentRegions()) {
    auto session = std::make_shared<Session>(radical.OpenSession(region));
    auto submit_next = std::make_shared<std::function<void(uint64_t)>>();
    loops.push_back(submit_next);
    *submit_next = [&, session, submit_next, stats](uint64_t remaining) {
      if (remaining == 0) {
        return;
      }
      RequestSpec spec = workload(rng);
      ++stats->issued;
      const SimTime start = sim.Now();
      auto preview_at = std::make_shared<SimTime>(0);
      auto preview_value = std::make_shared<Value>();
      session->Submit(
          Request{spec.function, std::move(spec.inputs)},
          [&, submit_next, stats, start, preview_at, preview_value,
           remaining](Outcome outcome) {
            if (outcome.preview()) {
              *preview_at = sim.Now();
              *preview_value = outcome.result;
              stats->preview_latency.Add(sim.Now() - start);
              return;
            }
            ++stats->finals;
            stats->final_latency.Add(sim.Now() - start);
            if (*preview_at != 0) {
              ++stats->previews;
              stats->final_of_previewed.Add(sim.Now() - start);
              stats->gap.Add(sim.Now() - *preview_at);
              if (*preview_value == outcome.result) {
                ++stats->preview_matches;
              }
            }
            // Think, then the session's next request.
            const SimDuration think = Millis(50 + rng.NextBelow(100));
            sim.Schedule(think, [submit_next, remaining] {
              (*submit_next)(remaining - 1);
            });
          });
    };
    (*submit_next)(per_session);
  }
  sim.Run();
  for (const auto& loop : loops) {
    *loop = nullptr;
  }

  Check(stats->finals == stats->issued,
        "preview_vs_final: every request must resolve to exactly one final");
  const Summary finals = stats->final_latency.Summarize();
  const Summary previews = stats->preview_latency.Summarize();
  Check(stats->previews > 0, "preview_vs_final: no previews delivered at all");
  // Strict per-request ordering: every preview beat its own final by a
  // positive margin, and the previewed population's medians reflect it.
  Check(stats->gap.count() == stats->previews && stats->gap.Summarize().min_ms > 0,
        "preview_vs_final: a preview failed to strictly precede its final");
  Check(previews.p50_ms < stats->final_of_previewed.Summarize().p50_ms,
        "preview_vs_final: preview latency must sit strictly below the final");

  ThroughputPoint point;
  point.session_point = true;
  point.offered_rps = 0.0;
  const double duration_s = static_cast<double>(sim.Now()) / 1e6;
  point.throughput_rps =
      duration_s > 0 ? static_cast<double>(stats->finals) / duration_s : 0.0;
  point.p50_ms = finals.p50_ms;
  point.p90_ms = finals.p90_ms;
  point.p99_ms = finals.p99_ms;
  point.preview_p50_ms = previews.p50_ms;
  point.preview_gap_ms = stats->gap.MeanMs();
  point.previews = stats->previews;
  point.preview_accuracy_pct =
      stats->previews > 0
          ? 100.0 * static_cast<double>(stats->preview_matches) /
                static_cast<double>(stats->previews)
          : 0.0;
  point.aborts = radical.server().counters().Get("validate_fail");
  return point;
}

// --- session_failover --------------------------------------------------------

struct FailoverStats {
  uint64_t issued = 0;
  uint64_t finals = 0;
  uint64_t previews = 0;
  uint64_t failovers = 0;
  uint64_t stale_upgrades = 0;
  LatencySampler final_latency;
  LatencySampler gap;  // final - preview, per read that previewed.
};

ThroughputPoint MeasureFailoverCurve(uint64_t seed) {
  Simulator sim(seed);
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions());
  radical.RegisterFunction(Fn("reg_read", {"k"}, {
      Read("v", In("k")),
      Return(V("v")),
  }));
  radical.RegisterFunction(Fn("reg_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Return(In("v")),
  }));
  radical.Seed("k", Value(static_cast<int64_t>(0)));
  radical.WarmCaches();

  const SimDuration window = BenchSmokeMode() ? Seconds(2) : Seconds(6);
  auto stats = std::make_shared<FailoverStats>();
  Rng rng(seed * 29 + 11);

  // Writer at the primary location advances the key through an increasing
  // sequence; session readers must never observe it move backwards.
  Client writer = radical.client(kPrimaryRegion);
  for (SimDuration at = Millis(40); at < window; at += Millis(40)) {
    const int64_t value = static_cast<int64_t>(at / Millis(40));
    sim.Schedule(at, [&, value] {
      writer.Submit(Request{"reg_write", {Value("k"), Value(value)}}, [](Outcome) {});
    });
  }

  // One closed-loop session reader per non-primary location. Each loop holds
  // itself; they are cleared after the run, which frees them.
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (const Region region : DeploymentRegions()) {
    if (region == kPrimaryRegion) {
      continue;
    }
    auto session = std::make_shared<Session>(radical.OpenSession(region));
    sessions.push_back(session);
    auto last_seen = std::make_shared<int64_t>(-1);
    auto read_loop = std::make_shared<std::function<void()>>();
    loops.push_back(read_loop);
    *read_loop = [&, session, last_seen, read_loop] {
      if (sim.Now() >= window) {
        return;
      }
      ++stats->issued;
      const SimTime start = sim.Now();
      auto preview_at = std::make_shared<SimTime>(0);
      session->Submit(Request{"reg_read", {Value("k")}},
                      [&, session, last_seen, read_loop, start, preview_at](Outcome outcome) {
                        if (outcome.preview()) {
                          *preview_at = sim.Now();
                          return;
                        }
                        ++stats->finals;
                        stats->final_latency.Add(sim.Now() - start);
                        if (*preview_at != 0) {
                          stats->gap.Add(sim.Now() - *preview_at);
                        }
                        Check(outcome.executed(),
                              "session_failover: a session read ended unexecuted");
                        if (outcome.result.is_int()) {
                          const int64_t seen = outcome.result.AsInt();
                          Check(seen >= *last_seen,
                                "session_failover: monotonic-read violation");
                          *last_seen = seen;
                        }
                        const SimDuration think = Millis(40 + rng.NextBelow(60));
                        sim.Schedule(think, [read_loop] { (*read_loop)(); });
                      });
    };
    (*read_loop)();
  }

  // Mid-run PoP kill under a busy location; recover late so nothing re-binds
  // back before the window closes.
  sim.Schedule(window / 2, [&] { radical.CrashRuntime(Region::kCA); });
  sim.Schedule(window, [&] { radical.RecoverRuntime(Region::kCA); });
  sim.Run();
  for (const auto& loop : loops) {
    *loop = nullptr;
  }

  for (const auto& session : sessions) {
    stats->failovers += session->failovers();
    stats->previews += session->previews();
    stats->stale_upgrades += session->stale_upgrades();
    Check(session->unacked() == 0, "session_failover: request left unanswered");
  }
  Check(stats->finals == stats->issued,
        "session_failover: reply rate must be 100% across the PoP kill");
  Check(stats->failovers > 0, "session_failover: the kill must hit a live session");

  ThroughputPoint point;
  point.session_point = true;
  const Summary finals = stats->final_latency.Summarize();
  point.p50_ms = finals.p50_ms;
  point.p90_ms = finals.p90_ms;
  point.p99_ms = finals.p99_ms;
  const double duration_s = static_cast<double>(sim.Now()) / 1e6;
  point.throughput_rps =
      duration_s > 0 ? static_cast<double>(stats->finals) / duration_s : 0.0;
  point.replies_pct = stats->issued > 0
                          ? 100.0 * static_cast<double>(stats->finals) /
                                static_cast<double>(stats->issued)
                          : 0.0;
  point.failovers = stats->failovers;
  point.previews = stats->previews;
  point.preview_gap_ms = stats->gap.MeanMs();
  point.preview_accuracy_pct = 100.0;  // Gated by the monotonic check above.
  return point;
}

void Run() {
  std::printf("Consistency spectrum: previews vs finals, sessions across a PoP kill\n\n");
  BenchReport report("consistency_spectrum");

  const std::vector<int> widths = {10, 9, 12, 10, 10, 11, 10};
  PrintTableHeader({"app", "prev p50", "final p50", "gap ms", "accuracy", "previews", "aborts"},
                   widths);
  ThroughputCurve preview_curve;
  preview_curve.name = "preview_vs_final";
  uint64_t seed = 7100;
  for (const AppSpec& app : AllApps()) {
    ThroughputPoint p = MeasurePreviewCurve(app, seed++);
    char acc[16];
    std::snprintf(acc, sizeof(acc), "%.1f%%", p.preview_accuracy_pct);
    PrintTableRow({app.name, Ms(p.preview_p50_ms), Ms(p.p50_ms), Ms(p.preview_gap_ms), acc,
                   std::to_string(p.previews), std::to_string(p.aborts)},
                  widths);
    preview_curve.points.push_back(p);
  }
  report.AddCurve(preview_curve);

  std::printf("\nSession failover (mid-run PoP kill under the kCA sessions):\n");
  ThroughputCurve failover_curve;
  failover_curve.name = "session_failover";
  ThroughputPoint f = MeasureFailoverCurve(7300);
  std::printf("  replies: %.1f%%  failovers: %llu  previews: %llu  final p50: %s ms\n",
              f.replies_pct, static_cast<unsigned long long>(f.failovers),
              static_cast<unsigned long long>(f.previews), Ms(f.p50_ms).c_str());
  failover_curve.points.push_back(f);
  report.AddCurve(failover_curve);

  const std::string path = report.Write();
  if (!path.empty()) {
    std::printf("\nwrote %s\n", path.c_str());
  }
  std::printf("\nPreviews answer at edge-execution latency; finals stay linearizable;\n"
              "sessions ride out a PoP kill with every request answered exactly once\n"
              "and reads never moving backwards.\n");
}

}  // namespace
}  // namespace radical

int main() {
  radical::Run();
  if (radical::g_violations > 0) {
    std::fprintf(stderr, "%d consistency-spectrum violation(s)\n", radical::g_violations);
    return 1;
  }
  return 0;
}
