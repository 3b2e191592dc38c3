// Ablation: the design decision the LVI protocol's latency story rests on
// (§1, §3.2): speculative execution. Without it, the function runs only
// after the LVI response validates, so coordination and execution
// serialize.
//
// A second row drops every cache push: the paper's pull-only cache, which
// only failed validations repair. Its validation success rate is the
// paper's; the full row shows what pushing committed writes buys.
//
// Measured on the social media workload across all five regions.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/string_util.h"

namespace radical {
namespace {

void Run() {
  std::printf("Ablation: Radical's design decisions (social media workload)\n\n");
  const AppSpec app = MakeSocialApp();

  RunOptions base;
  base.seed = 55;
  base.requests_per_client = 150;

  RunOptions no_spec = base;
  no_spec.config.speculation_enabled = false;

  RunOptions pull_only = base;
  pull_only.pull_only_cache = true;

  const ExperimentResult full = RunApp(app, DeployKind::kRadical, base);
  const ExperimentResult spec_off = RunApp(app, DeployKind::kRadical, no_spec);
  const ExperimentResult pull_only_result = RunApp(app, DeployKind::kRadical, pull_only);
  const ExperimentResult baseline = RunApp(app, DeployKind::kBaseline, base);

  const std::vector<int> widths = {30, 10, 10, 9};
  PrintTableHeader({"configuration", "p50 ms", "p99 ms", "val-ok%"}, widths);
  auto row = [&widths](const char* name, const ExperimentResult& r, bool radical) {
    PrintTableRow({name, Ms(r.overall.p50_ms), Ms(r.overall.p99_ms),
                   radical ? FormatDouble(100.0 * r.validation_success_rate, 1) : "-"},
                  widths);
  };
  row("Radical (full)", full, true);
  row("no speculation", spec_off, true);
  row("pull-only cache (paper)", pull_only_result, true);
  row("primary-DC baseline", baseline, false);
  PrintRule(widths);
  std::printf(
      "\nShapes: without speculation the median collapses toward (and past) the\n"
      "baseline — overlap is where the win comes from. The pull-only cache\n"
      "repairs a stale copy only after a failed validation and its backup\n"
      "execution, so it validates less often and pays a longer tail.\n");
}

}  // namespace
}  // namespace radical

int main() {
  radical::Run();
  return 0;
}
