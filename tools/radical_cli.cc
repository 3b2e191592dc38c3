// radical_cli: run a configurable Radical experiment from the command line.
//
//   radical_cli [--app social|hotel|forum]
//               [--deploy radical|baseline|ideal]
//               [--regions VA,CA,IE,DE,JP]
//               [--clients N] [--requests N] [--think-ms N] [--seed S]
//               [--replicated-locks N] [--no-speculation]
//               [--per-function] [--per-region]
//
// Examples:
//   radical_cli --app hotel --deploy radical --per-region
//   radical_cli --app forum --deploy baseline --clients 20 --requests 500
//   radical_cli --app social --replicated-locks 3 --per-function
//
// Every run is deterministic for its --seed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "src/common/string_util.h"

namespace radical {
namespace {

struct CliOptions {
  std::string app = "social";
  std::string deploy = "radical";
  RunOptions run;
  bool per_function = false;
  bool per_region = false;
  int replicated_locks = 0;
};

void Usage() {
  std::printf(
      "usage: radical_cli [--app social|hotel|forum] [--deploy radical|baseline|ideal]\n"
      "                   [--regions VA,CA,IE,DE,JP] [--clients N] [--requests N]\n"
      "                   [--think-ms N] [--seed S] [--replicated-locks N]\n"
      "                   [--no-speculation] [--per-function] [--per-region]\n");
}

bool ParseRegions(const std::string& spec, std::vector<Region>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string name = spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                                         : comma - pos);
    bool found = false;
    for (int r = 0; r < kNumRegions; ++r) {
      if (name == RegionName(static_cast<Region>(r))) {
        out->push_back(static_cast<Region>(r));
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown region: %s\n", name.c_str());
      return false;
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

bool Parse(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else if (arg == "--app") {
      const char* v = next("--app");
      if (v == nullptr) {
        return false;
      }
      options->app = v;
    } else if (arg == "--deploy") {
      const char* v = next("--deploy");
      if (v == nullptr) {
        return false;
      }
      options->deploy = v;
    } else if (arg == "--regions") {
      const char* v = next("--regions");
      if (v == nullptr || !ParseRegions(v, &options->run.regions)) {
        return false;
      }
    } else if (arg == "--clients") {
      const char* v = next("--clients");
      if (v == nullptr) {
        return false;
      }
      options->run.clients_per_region = std::atoi(v);
    } else if (arg == "--requests") {
      const char* v = next("--requests");
      if (v == nullptr) {
        return false;
      }
      options->run.requests_per_client = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--think-ms") {
      const char* v = next("--think-ms");
      if (v == nullptr) {
        return false;
      }
      options->run.think_time = Millis(std::atoll(v));
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) {
        return false;
      }
      options->run.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--replicated-locks") {
      const char* v = next("--replicated-locks");
      if (v == nullptr) {
        return false;
      }
      options->replicated_locks = std::atoi(v);
    } else if (arg == "--no-speculation") {
      options->run.config.speculation_enabled = false;
    } else if (arg == "--per-function") {
      options->per_function = true;
    } else if (arg == "--per-region") {
      options->per_region = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return false;
    }
  }
  return true;
}

std::optional<AppSpec> PickApp(const std::string& name) {
  if (name == "social") {
    return MakeSocialApp();
  }
  if (name == "hotel") {
    return MakeHotelApp();
  }
  if (name == "forum") {
    return MakeForumApp();
  }
  return std::nullopt;
}

int Run(const CliOptions& options) {
  DeployKind kind = DeployKind::kRadical;
  if (options.deploy == "baseline") {
    kind = DeployKind::kBaseline;
  } else if (options.deploy == "ideal") {
    kind = DeployKind::kIdeal;
  } else if (options.deploy != "radical") {
    std::fprintf(stderr, "unknown deployment: %s\n", options.deploy.c_str());
    return 1;
  }
  const std::optional<AppSpec> picked = PickApp(options.app);
  if (!picked) {
    std::fprintf(stderr, "unknown app: %s\n", options.app.c_str());
    return 1;
  }
  const AppSpec& app = *picked;

  // The replicated-lock configuration needs a bespoke deployment; everything
  // else goes through the shared harness.
  ExperimentResult result;
  if (options.replicated_locks > 0 && kind == DeployKind::kRadical) {
    Simulator sim(options.run.seed);
    Network net(&sim, LatencyMatrix::PaperDefault());
    RadicalDeployment radical(&sim, &net, options.run.config, options.run.regions,
                              options.replicated_locks);
    app.RegisterAll(&radical);
    app.seed(&radical);
    radical.WarmCaches();
    LoadGeneratorOptions load;
    load.clients_per_region = options.run.clients_per_region;
    load.requests_per_client = options.run.requests_per_client;
    load.think_time = options.run.think_time;
    LoadGenerator generator(&sim, &radical, options.run.regions, app.make_workload(), load);
    generator.Start();
    // Raft heartbeats run forever; drive the simulator until the clients
    // finish, plus a grace period for trailing followups and lock releases.
    while (!generator.finished() && sim.Step()) {
    }
    sim.RunFor(Seconds(10));
    result.overall = generator.Overall().Summarize();
    result.total_requests = generator.total_requests();
    result.validation_success_rate = radical.server().ValidationSuccessRate();
    for (const Region region : options.run.regions) {
      result.per_region[region] = generator.ForRegion(region).Summarize();
    }
    for (const FunctionSpec& fn : app.functions) {
      result.per_function[fn.def.name] = generator.ForFunction(fn.def.name).Summarize();
    }
  } else {
    result = RunApp(app, kind, options.run);
  }

  std::printf("app=%s deploy=%s%s regions=%zu clients=%d x %llu requests seed=%llu\n",
              options.app.c_str(), options.deploy.c_str(),
              options.replicated_locks > 0 ? " (replicated locks)" : "",
              options.run.regions.size(), options.run.clients_per_region,
              static_cast<unsigned long long>(options.run.requests_per_client),
              static_cast<unsigned long long>(options.run.seed));
  std::printf("requests completed: %llu\n",
              static_cast<unsigned long long>(result.total_requests));
  std::printf("latency: p50=%.1fms p90=%.1fms p99=%.1fms mean=%.1fms\n",
              result.overall.p50_ms, result.overall.p90_ms, result.overall.p99_ms,
              result.overall.mean_ms);
  if (kind == DeployKind::kRadical) {
    std::printf("validation success: %.1f%%\n", 100.0 * result.validation_success_rate);
  }
  if (options.per_region) {
    std::printf("\nper region:\n");
    for (const auto& [region, summary] : result.per_region) {
      std::printf("  %-3s p50=%.1fms p99=%.1fms (n=%zu)\n", RegionName(region), summary.p50_ms,
                  summary.p99_ms, summary.count);
    }
  }
  if (options.per_function) {
    std::printf("\nper function:\n");
    for (const auto& [name, summary] : result.per_function) {
      if (summary.count > 0) {
        std::printf("  %-20s p50=%.1fms p99=%.1fms (n=%zu)\n", name.c_str(), summary.p50_ms,
                    summary.p99_ms, summary.count);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace radical

int main(int argc, char** argv) {
  radical::CliOptions options;
  if (!radical::Parse(argc, argv, &options)) {
    return 1;
  }
  return radical::Run(options);
}
