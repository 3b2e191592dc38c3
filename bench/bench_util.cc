#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/common/string_util.h"
#include "src/obs/json.h"

namespace radical {

const char* DeployKindName(DeployKind kind) {
  switch (kind) {
    case DeployKind::kRadical:
      return "Radical";
    case DeployKind::kBaseline:
      return "Baseline";
    case DeployKind::kIdeal:
      return "Ideal";
  }
  return "?";
}

bool BenchSmokeMode() {
  const char* smoke = std::getenv("RADICAL_BENCH_SMOKE");
  return smoke != nullptr && smoke[0] == '1';
}

ExperimentResult RunApp(const AppSpec& app, DeployKind kind, const RunOptions& raw_options) {
  RunOptions options = raw_options;
  if (BenchSmokeMode()) {
    // Shrink the load so every bench finishes in well under a second while
    // exercising the same code paths end to end.
    options.clients_per_region = std::min(options.clients_per_region, 2);
    options.requests_per_client = std::min<uint64_t>(options.requests_per_client, 5);
  }
  Simulator sim(options.seed);
  Network net(&sim, LatencyMatrix::PaperDefault());

  std::unique_ptr<RadicalDeployment> radical;
  std::unique_ptr<PrimaryBaselineDeployment> baseline;
  std::unique_ptr<LocalIdealDeployment> ideal;
  AppService* service = nullptr;
  switch (kind) {
    case DeployKind::kRadical:
      radical = std::make_unique<RadicalDeployment>(&sim, &net, options.config, options.regions);
      service = radical.get();
      if (options.pull_only_cache) {
        net::DropRule rule;
        rule.kind = net::MessageKind::kCachePush;
        net.fabric().AddDropRule(rule);
      }
      break;
    case DeployKind::kBaseline:
      baseline = std::make_unique<PrimaryBaselineDeployment>(&sim, &net, options.config);
      service = baseline.get();
      break;
    case DeployKind::kIdeal:
      ideal = std::make_unique<LocalIdealDeployment>(&sim, options.config, options.regions);
      service = ideal.get();
      break;
  }
  app.RegisterAll(service);
  app.seed(service);
  if (radical != nullptr) {
    radical->WarmCaches();
  }

  LoadGeneratorOptions load_options;
  load_options.clients_per_region = options.clients_per_region;
  load_options.requests_per_client = options.requests_per_client;
  load_options.think_time = options.think_time;
  LoadGenerator generator(&sim, service, options.regions, app.make_workload(), load_options);
  generator.Start();
  const auto wall_start = std::chrono::steady_clock::now();
  sim.Run();
  const auto wall_end = std::chrono::steady_clock::now();

  ExperimentResult result;
  result.sim_seconds = static_cast<double>(sim.Now()) / 1e6;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(wall_end - wall_start).count();
  result.overall = generator.Overall().Summarize();
  result.total_requests = generator.total_requests();
  for (const Region region : options.regions) {
    result.per_region[region] = generator.ForRegion(region).Summarize();
  }
  for (const FunctionSpec& fn : app.functions) {
    result.per_function[fn.def.name] = generator.ForFunction(fn.def.name).Summarize();
    for (const Region region : options.regions) {
      result.per_region_function[{region, fn.def.name}] =
          generator.ForRegionFunction(region, fn.def.name).Summarize();
    }
  }
  if (radical != nullptr) {
    result.validation_success_rate = radical->server().ValidationSuccessRate();
    result.backup_execs = radical->server().backup_executions();
    result.reexecutions = radical->server().reexecutions();
    result.primary_reruns = radical->server().counters().Get("primary_reruns");
    result.lock_waits = radical->locks().total_waits();
    result.lvi_requests = radical->server().counters().Get("lvi_requests");
    uint64_t speculations = 0;
    for (const Region region : options.regions) {
      const obs::MetricsScope counters = radical->runtime(region).counters();
      speculations += counters.Get("speculations");
      result.snapshot_reruns += counters.Get("snapshot_reruns");
      const uint64_t requests = counters.Get("requests");
      result.per_region_validation_fail_pct[region] =
          requests == 0 ? 0.0
                        : 100.0 * static_cast<double>(counters.Get("invalidated_speculative")) /
                              static_cast<double>(requests);
    }
    result.speculations = speculations;
    result.wan_bytes = net.wan_bytes_sent();
  }
  if (result.wall_seconds > 0.0) {
    result.requests_per_wall_second =
        static_cast<double>(result.total_requests) / result.wall_seconds;
  }
  return result;
}

namespace {

void WriteSummary(obs::JsonWriter* w, const Summary& s) {
  w->BeginObject();
  w->Key("count");
  w->Uint(s.count);
  w->Key("mean");
  w->Double(s.mean_ms);
  w->Key("min");
  w->Double(s.min_ms);
  w->Key("p50");
  w->Double(s.p50_ms);
  w->Key("p90");
  w->Double(s.p90_ms);
  w->Key("p99");
  w->Double(s.p99_ms);
  w->Key("max");
  w->Double(s.max_ms);
  w->EndObject();
}

}  // namespace

BenchReport::BenchReport(std::string bench_name) : bench_name_(std::move(bench_name)) {}

void BenchReport::Add(const std::string& experiment_name, const ExperimentResult& result) {
  entries_.emplace_back(experiment_name, result);
}

void BenchReport::AddCurve(ThroughputCurve curve) { curves_.push_back(std::move(curve)); }

void BenchReport::AddMicro(MicroResult result) { micro_.push_back(std::move(result)); }

std::string BenchReport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String(bench_name_);
  w.Key("schema_version");
  w.Int(2);
  w.Key("latency_unit");
  w.String("ms");
  w.Key("smoke");
  w.Bool(BenchSmokeMode());
  w.Key("experiments");
  w.BeginArray();
  for (const auto& [name, result] : entries_) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("requests");
    w.Uint(result.total_requests);
    w.Key("latency_ms");
    WriteSummary(&w, result.overall);
    w.Key("per_region_ms");
    w.BeginObject();
    for (const auto& [region, summary] : result.per_region) {
      w.Key(RegionName(region));
      WriteSummary(&w, summary);
    }
    w.EndObject();
    if (!result.per_region_validation_fail_pct.empty()) {
      // Radical runs only: the share of each region's requests whose
      // validation failed (Fig 5's tail at the far PoPs).
      w.Key("per_region_validation_fail_pct");
      w.BeginObject();
      for (const auto& [region, pct] : result.per_region_validation_fail_pct) {
        w.Key(RegionName(region));
        w.Double(pct, 3);
      }
      w.EndObject();
    }
    w.Key("protocol");
    w.BeginObject();
    w.Key("validation_success_rate");
    w.Double(result.validation_success_rate, 6);
    // Per-app abort rate: validations that succeeded, and the two answers to
    // a failed one per request — a writer's backup execution at the primary,
    // a read-only request's rerun at its PoP; zeros for non-Radical runs.
    const auto per_request = [&result](uint64_t count) {
      return result.total_requests == 0
                 ? 0.0
                 : static_cast<double>(count) / static_cast<double>(result.total_requests);
    };
    w.Key("validation_ok_pct");
    w.Double(100.0 * result.validation_success_rate, 3);
    w.Key("backup_execs_per_req");
    w.Double(per_request(result.backup_execs), 6);
    w.Key("snapshot_reruns_per_req");
    w.Double(per_request(result.snapshot_reruns), 6);
    w.Key("reexecutions");
    w.Uint(result.reexecutions);
    w.Key("primary_reruns");
    w.Uint(result.primary_reruns);
    w.Key("lock_waits");
    w.Uint(result.lock_waits);
    w.Key("speculations");
    w.Uint(result.speculations);
    w.Key("wan_bytes");
    w.Uint(result.wan_bytes);
    w.Key("lvi_requests");
    w.Uint(result.lvi_requests);
    w.EndObject();
    w.Key("simulator");
    w.BeginObject();
    w.Key("sim_seconds");
    w.Double(result.sim_seconds);
    w.Key("wall_seconds");
    w.Double(result.wall_seconds, 6);
    w.Key("requests_per_wall_second");
    w.Double(result.requests_per_wall_second, 1);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("curves");
  w.BeginArray();
  for (const ThroughputCurve& curve : curves_) {
    w.BeginObject();
    w.Key("name");
    w.String(curve.name);
    w.Key("points");
    w.BeginArray();
    for (const ThroughputPoint& p : curve.points) {
      w.BeginObject();
      w.Key("shards");
      w.Int(p.shards);
      w.Key("clients");
      w.Int(p.clients);
      w.Key("offered_rps");
      w.Double(p.offered_rps, 1);
      w.Key("throughput_rps");
      w.Double(p.throughput_rps, 1);
      w.Key("goodput_rps");
      w.Double(p.goodput_rps, 1);
      w.Key("aborts");
      w.Uint(p.aborts);
      w.Key("reexecutions");
      w.Uint(p.reexecutions);
      w.Key("p50_ms");
      w.Double(p.p50_ms);
      w.Key("p90_ms");
      w.Double(p.p90_ms);
      w.Key("p99_ms");
      w.Double(p.p99_ms);
      w.Key("overload_control");
      w.Bool(p.overload_control);
      w.Key("rejected");
      w.Uint(p.rejected);
      w.Key("shed");
      w.Uint(p.shed);
      w.Key("deadline_exceeded");
      w.Uint(p.deadline_exceeded);
      w.Key("queue_depth_peak");
      w.Uint(p.queue_depth_peak);
      if (p.raft_groups > 0) {
        // Replicated-lock point: present only for multi-Raft curves, keyed
        // on raft_groups (tools/bench_json_check validates the group).
        w.Key("raft_groups");
        w.Int(p.raft_groups);
        w.Key("leader_kills");
        w.Uint(p.leader_kills);
        w.Key("replies_pct");
        w.Double(p.replies_pct, 2);
        w.Key("linearizable");
        w.Bool(p.linearizable);
        w.Key("compensating_releases");
        w.Uint(p.compensating_releases);
        w.Key("raft_nodes");
        w.Int(p.raft_nodes);
        w.Key("appends_per_commit");
        w.Double(p.appends_per_commit, 3);
      }
      if (p.locks > 0) {
        // Replicated-acquire point: present only for the serial-vs-batched
        // curve, keyed on locks (tools/bench_json_check validates the group).
        w.Key("locks");
        w.Int(p.locks);
        w.Key("serial_ms");
        w.Double(p.serial_ms, 3);
        w.Key("batched_ms");
        w.Double(p.batched_ms, 3);
      }
      if (p.session_point) {
        // Consistency-spectrum point: present only for session/preview
        // curves, keyed on session_point (tools/bench_json_check validates
        // the group).
        w.Key("session_point");
        w.Bool(p.session_point);
        w.Key("preview_gap_ms");
        w.Double(p.preview_gap_ms, 2);
        w.Key("preview_p50_ms");
        w.Double(p.preview_p50_ms, 2);
        w.Key("preview_accuracy_pct");
        w.Double(p.preview_accuracy_pct, 2);
        w.Key("previews");
        w.Uint(p.previews);
        w.Key("failovers");
        w.Uint(p.failovers);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("micro");
  w.BeginArray();
  for (const MicroResult& m : micro_) {
    w.BeginObject();
    w.Key("name");
    w.String(m.name);
    w.Key("iterations");
    w.Uint(m.iterations);
    w.Key("ns_per_op");
    w.Double(m.ns_per_op, 2);
    w.Key("ops_per_sec");
    w.Double(m.ops_per_sec, 1);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string BenchReport::Write() const {
  const char* env = std::getenv("RADICAL_BENCH_JSON");
  std::string path = env != nullptr ? env : "BENCH_radical.json";
  if (path.empty()) {
    return "";
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return "";
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size() ? path : "";
}

void PrintTableHeader(const std::vector<std::string>& cols, const std::vector<int>& widths) {
  PrintRule(widths);
  PrintTableRow(cols, widths);
  PrintRule(widths);
}

void PrintTableRow(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::string line = "|";
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    line += " " + PadLeft(cells[i], static_cast<size_t>(width)) + " |";
  }
  std::printf("%s\n", line.c_str());
}

void PrintRule(const std::vector<int>& widths) {
  std::string line = "+";
  for (const int width : widths) {
    line += std::string(static_cast<size_t>(width) + 2, '-') + "+";
  }
  std::printf("%s\n", line.c_str());
}

std::string Ms(double ms, int digits) { return FormatDouble(ms, digits); }

}  // namespace radical
