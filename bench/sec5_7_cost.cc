// §5.7 cost analysis: the added infrastructure cost of running Radical over
// the primary-datacenter baseline, using the paper's AWS price points, plus
// the invocation-scaling table and the measured bandwidth/second-execution
// overheads from a live (simulated) run.
//
// Paper numbers reproduced exactly (they are a price model, not a
// measurement): baseline DynamoDB $1077.36/mo; Radical adds ScyllaDB caches
// ($34 x 5 = $170) and the LVI server ($166) for $1413.36/mo — a 31%
// increase; per-invocation costs stay negligible at 1M/10M/100M monthly
// invocations.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/string_util.h"

namespace radical {
namespace {

// AWS price points used by the paper.
constexpr double kDynamoMonthly = 1077.36;  // 50k reads/s + 500 writes/s provisioned.
constexpr double kScyllaMonthly = 34.0 * 5;   // m6g.large x 5 near-user locations.
constexpr double kLviServerMonthly = 166.0;   // t3.2xlarge.
// Lambda: $0.0000000167/ms at 1 GB... the paper charges $2.87 per 1M
// 100 ms invocations; validation failures add a re-run for 5% of requests.
constexpr double kPerMillionInvocations = 2.87;
constexpr double kValidationFailureRate = 0.05;

void PrintInfrastructure() {
  std::printf("Infrastructure cost (monthly):\n");
  const std::vector<int> widths = {34, 12, 12};
  PrintTableHeader({"component", "baseline $", "radical $"}, widths);
  PrintTableRow({"DynamoDB (primary, 50k r/s 500 w/s)", FormatDouble(kDynamoMonthly, 2),
                 FormatDouble(kDynamoMonthly, 2)},
                widths);
  PrintTableRow({"Near-user caches (ScyllaDB x5)", "-", FormatDouble(kScyllaMonthly, 2)},
                widths);
  PrintTableRow({"LVI server (EC2 t3.2xlarge)", "-", FormatDouble(kLviServerMonthly, 2)},
                widths);
  const double baseline = kDynamoMonthly;
  const double radical = kDynamoMonthly + kScyllaMonthly + kLviServerMonthly;
  PrintTableRow({"total", FormatDouble(baseline, 2), FormatDouble(radical, 2)}, widths);
  PrintRule(widths);
  std::printf("Radical / baseline = %.2fx (paper: 1.31x / +31%%)\n\n", radical / baseline);
}

void PrintInvocationScaling() {
  std::printf("Total monthly cost vs invocation volume (100 ms avg functions):\n");
  const std::vector<int> widths = {16, 14, 14};
  PrintTableHeader({"invocations/mo", "baseline $", "radical $"}, widths);
  for (const double millions : {1.0, 10.0, 100.0}) {
    const double invoke_cost = millions * kPerMillionInvocations;
    const double failure_cost = millions * kValidationFailureRate * kPerMillionInvocations;
    const double baseline = kDynamoMonthly + invoke_cost;
    const double radical =
        kDynamoMonthly + kScyllaMonthly + kLviServerMonthly + invoke_cost + failure_cost;
    PrintTableRow({FormatDouble(millions, 0) + "M", FormatDouble(baseline, 2),
                   FormatDouble(radical, 2)},
                  widths);
  }
  PrintRule(widths);
  std::printf("Paper: 1M -> $1080.23 vs $1416.37; 10M -> $1106.06 vs $1443.50;\n");
  std::printf("       100M -> $1364.36 vs $1714.71.\n\n");
}

void PrintMeasuredOverheads() {
  // Measure the protocol's real (simulated) overheads on a Fig-4-style run:
  // WAN bytes per request and the second-execution rate.
  std::printf("Measured protocol overheads (social media workload, simulated run):\n");
  RunOptions options;
  options.seed = 77;
  options.requests_per_client = 100;
  const AppSpec app = MakeSocialApp();
  const ExperimentResult radical = RunApp(app, DeployKind::kRadical, options);
  const std::vector<int> widths = {36, 14};
  PrintTableHeader({"metric", "value"}, widths);
  PrintTableRow({"requests", std::to_string(radical.total_requests)}, widths);
  PrintTableRow({"validation success rate %",
                 FormatDouble(100.0 * radical.validation_success_rate, 1)},
                widths);
  PrintTableRow({"second executions (backup+rerun)",
                 std::to_string(radical.backup_execs + radical.snapshot_reruns)},
                widths);
  PrintTableRow({"WAN bytes per request",
                 std::to_string(radical.wan_bytes / std::max<uint64_t>(1,
                                                                       radical.total_requests))},
                widths);
  PrintRule(widths);
  std::printf("Paper: second executions are proportional to the ~5%% validation failure\n");
  std::printf("rate; LVI bandwidth is small (key names + versions per request).\n");
}

void Run() {
  std::printf("Section 5.7: cost analysis\n\n");
  PrintInfrastructure();
  PrintInvocationScaling();
  PrintMeasuredOverheads();
}

}  // namespace
}  // namespace radical

int main() {
  radical::Run();
  return 0;
}
