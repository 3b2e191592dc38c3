// Fault sweep: request-lifecycle robustness under message loss and server
// crashes. Sweeps a per-leg drop probability (LVI request, LVI response,
// write followup) crossed with an optional mid-run crash/recover of the LVI
// server, and reports the reply rate (every Invoke must be answered —
// RetryPolicy's contract), latency percentiles, and the retry machinery's
// footprint: retry amplification, degraded-mode direct fallbacks, and
// continuations dropped by the crash-epoch guard. One of the registers is
// named by an opaque digest: its reads go through an unanalyzable function
// that runs at the primary and locks what its first run touched
// (`reruns`). Every cell's history is checked for linearizability; the
// binary exits nonzero on a lost reply or a violation.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/linearizability.h"
#include "src/func/builder.h"
#include "src/func/interpreter.h"

namespace radical {
namespace {

struct SweepPoint {
  double loss;
  bool crash;
  uint64_t requests = 0;
  uint64_t replies = 0;
  Summary latency;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t fallback_direct = 0;
  uint64_t stale_epoch_dropped = 0;
  uint64_t reexecutions = 0;
  uint64_t primary_reruns = 0;
  bool linearizable = false;
};

SweepPoint Measure(double loss, bool crash) {
  Simulator sim(9100 + static_cast<uint64_t>(loss * 1000) + (crash ? 7 : 0));
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalConfig config;
  config.server.intent_timeout = Millis(500);
  config.retry.request_timeout = Millis(300);
  config.retry.max_lvi_attempts = 3;
  RadicalDeployment radical(&sim, &net, config, DeploymentRegions());
  radical.RegisterFunction(Fn("reg_read", {"k"}, {
      Read("v", In("k")),
      Compute(Millis(5)),
      Return(V("v")),
  }));
  radical.RegisterFunction(Fn("reg_write", {"k", "v"}, {
      Write(In("k"), In("v")),
      Compute(Millis(5)),
      Return(In("v")),
  }));
  radical.RegisterFunction(Fn("opaque_read", {"name"}, {
      Read("v", IntToStr(Host("expensive_digest", {In("name")}))),
      Compute(Millis(5)),
      Return(V("v")),
  }));
  // Registers key0..key7 plus one named by the digest of "r": reg_write gets
  // its key as an input, opaque_read("r") derives it inside the function.
  const HostFunction* digest = HostRegistry::Standard().Find("expensive_digest");
  const Key opaque_key = std::to_string(digest->fn({Value("r")}).AsInt());
  const int kKeys = 9;
  std::map<Key, Value> initial;
  for (int k = 0; k < kKeys; ++k) {
    const Key key = k + 1 < kKeys ? "key" + std::to_string(k) : opaque_key;
    radical.Seed(key, Value("v0"));
    initial[key] = Value("v0");
  }
  radical.WarmCaches();

  if (loss > 0) {
    for (const net::MessageKind kind :
         {net::MessageKind::kLviRequest, net::MessageKind::kLviResponse,
          net::MessageKind::kWriteFollowup}) {
      net::DropRule rule;
      rule.kind = kind;
      rule.probability = loss;
      net.fabric().AddDropRule(rule);
    }
  }

  const int total_ops = 300;
  LatencySampler latency;
  HistoryRecorder history;
  Rng rng(5150);
  for (int i = 0; i < total_ops; ++i) {
    const Region region = DeploymentRegions()[rng.NextBelow(DeploymentRegions().size())];
    const bool is_write = rng.NextBool(0.3);
    const uint64_t k = rng.NextBelow(kKeys);
    const Key key = k + 1 < kKeys ? "key" + std::to_string(k) : opaque_key;
    const SimDuration at = static_cast<SimDuration>(rng.NextBelow(Seconds(10)));
    sim.Schedule(at, [&, region, is_write, key, i] {
      const SimTime invoke = sim.Now();
      const Value written("w" + std::to_string(i));
      auto done = [&, invoke, is_write, key, written](Value result) {
        latency.Add(sim.Now() - invoke);
        history.Record(
            HistoryOp{is_write, key, is_write ? written : std::move(result), invoke, sim.Now()});
      };
      if (is_write) {
        radical.Invoke(region, "reg_write", {Value(key), written}, std::move(done));
      } else if (key == opaque_key) {
        radical.Invoke(region, "opaque_read", {Value("r")}, std::move(done));
      } else {
        radical.Invoke(region, "reg_read", {Value(key)}, std::move(done));
      }
    });
  }

  if (crash) {
    // Crash while request pipelines are live (right after the 60th fresh
    // accept), recover 1.5 s later — arrivals in between are dropped at the
    // dead server and survive on the client's retry budget.
    while (radical.server().counters().Get("lvi_requests") < 60 && sim.Step()) {
    }
    radical.server().Crash();
    sim.Schedule(Millis(1500), [&] { radical.server().Recover(); });
  }
  sim.Run();

  SweepPoint point;
  point.loss = loss;
  point.crash = crash;
  point.latency = latency.Summarize();
  for (const Region region : DeploymentRegions()) {
    const obs::MetricsScope counters = radical.runtime(region).counters();
    point.requests += counters.Get("requests");
    point.replies += counters.Get("replies");
    point.retries += counters.Get("retries");
    point.timeouts += counters.Get("timeouts");
    point.fallback_direct += counters.Get("fallback_direct");
  }
  point.stale_epoch_dropped = radical.server().counters().Get("stale_epoch_dropped");
  point.reexecutions = radical.server().reexecutions();
  point.primary_reruns = radical.server().counters().Get("primary_reruns");
  point.linearizable = CheckHistory(history, initial).linearizable;
  return point;
}

bool Run() {
  std::printf("Fault sweep: per-leg loss x mid-run crash, 300 mixed ops over 10 s\n");
  std::printf("(loss applies independently to LVI requests, responses, and followups)\n\n");
  const std::vector<int> widths = {8, 7, 9, 9, 9, 10, 9, 10, 9, 8, 8, 8};
  PrintTableHeader({"loss", "crash", "replies", "p50 ms", "p99 ms", "retry/req",
                    "timeouts", "fallbacks", "stale", "reexec", "reruns", "linear"},
                   widths);
  bool ok = true;
  for (const bool crash : {false, true}) {
    for (const double loss : {0.0, 0.05, 0.1, 0.2}) {
      const SweepPoint p = Measure(loss, crash);
      char loss_buf[16];
      std::snprintf(loss_buf, sizeof(loss_buf), "%.0f%%", loss * 100);
      char amp_buf[16];
      std::snprintf(amp_buf, sizeof(amp_buf), "%.3f",
                    p.requests > 0 ? static_cast<double>(p.retries) /
                                         static_cast<double>(p.requests)
                                   : 0.0);
      PrintTableRow({loss_buf, crash ? "yes" : "no",
                     std::to_string(p.replies) + "/" + std::to_string(p.requests),
                     Ms(p.latency.p50_ms), Ms(p.latency.p99_ms), amp_buf,
                     std::to_string(p.timeouts), std::to_string(p.fallback_direct),
                     std::to_string(p.stale_epoch_dropped),
                     std::to_string(p.reexecutions), std::to_string(p.primary_reruns),
                     p.linearizable ? "yes" : "NO"},
                    widths);
      ok = ok && p.replies == p.requests && p.linearizable;
    }
    if (!crash) {
      PrintRule(widths);
    }
  }
  std::printf(
      "\nEvery cell must reply %d/%d: timeouts + bounded LVI retries, then the\n"
      "degraded direct path, guarantee an answer; the crash-epoch guard\n"
      "(stale) keeps pre-crash continuations from touching post-crash state.\n",
      300, 300);
  return ok;
}

}  // namespace
}  // namespace radical

int main() { return radical::Run() ? 0 : 1; }
