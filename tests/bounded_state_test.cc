// Long-run bounded state: what the LVI server keeps per execution (cached
// replies, idempotency keys, write intents, parked followups) and what each
// Raft node keeps in its log must be bounded by the work in flight, not grow
// with run length. Each workload runs for N and for 4N requests, and the
// peak of every size gauge over the run must be no larger at 4N than at N
// beyond a small constant. The gate is on structure sizes, not RSS: RSS also
// counts workload data and allocator slack.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/radical/deployment.h"
#include "src/radical/load_generator.h"
#include "src/raft/node.h"

namespace radical {
namespace {

constexpr int kClientsPerRegion = 2;
// Requests per client in the short run; the long run issues four times as
// many. The hotel run's short leg already commits more entries than the
// compaction threshold, so both legs exercise compaction.
constexpr uint64_t kShortRunPerClient = 60;

// Peak of each gauge, sampled every 100 ms of virtual time over one run.
using Peaks = std::map<std::string, int64_t>;

Peaks RunAndSample(const AppSpec& app, int replicated_locks, uint64_t requests_per_client,
                   uint64_t* completed) {
  Simulator sim(11);
  Network net(&sim, LatencyMatrix::PaperDefault());
  RadicalDeployment radical(&sim, &net, RadicalConfig{}, DeploymentRegions(), replicated_locks);
  app.RegisterAll(&radical);
  app.seed(&radical);
  radical.WarmCaches();
  std::vector<std::string> gauges;
  const std::string server = radical.server().counters().prefix() + ".size.";
  for (const char* table : {"lvi_replies", "direct_replies", "applied", "executions", "parked"}) {
    gauges.push_back(server + table);
  }
  if (replicated_locks > 0) {
    const std::string raft = radical.locks().cluster().metric_scope();
    for (int node = 0; node < replicated_locks; ++node) {
      gauges.push_back(raft + ".node" + std::to_string(node) + ".log_entries");
    }
  }
  LoadGeneratorOptions options;
  options.clients_per_region = kClientsPerRegion;
  options.requests_per_client = requests_per_client;
  LoadGenerator load(&sim, &radical, DeploymentRegions(), app.make_workload(), options);
  load.Start();
  Peaks peaks;
  while (!load.finished()) {
    sim.RunFor(Millis(100));
    for (const std::string& name : gauges) {
      peaks[name] = std::max(peaks[name], sim.metrics().GaugeValue(name));
    }
  }
  sim.RunFor(Seconds(5));  // Intents and lock releases settle (Raft never idles).
  *completed = load.total_requests();
  EXPECT_TRUE(radical.server().idle());
  return peaks;
}

// Runs `app` for N and 4N requests and checks every gauge's peak.
void ExpectBounded(const AppSpec& app, int replicated_locks) {
  uint64_t short_requests = 0;
  uint64_t long_requests = 0;
  const Peaks short_run = RunAndSample(app, replicated_locks, kShortRunPerClient, &short_requests);
  const Peaks long_run =
      RunAndSample(app, replicated_locks, 4 * kShortRunPerClient, &long_requests);
  ASSERT_EQ(long_requests, 4 * short_requests);
  const int64_t clients = kClientsPerRegion * static_cast<int64_t>(DeploymentRegions().size());
  const auto threshold = static_cast<int64_t>(RaftOptions{}.compaction_threshold);
  for (const auto& [name, peak] : long_run) {
    SCOPED_TRACE(name);
    const int64_t short_peak = short_run.at(name);
    // Each client has at most one request in flight; a few more entries
    // wait for the acknowledgement their client's next request carries.
    EXPECT_LE(peak, short_peak + clients);
    if (name.find(".log_entries") != std::string::npos) {
      // The log compacts at the threshold; it never holds the whole run.
      EXPECT_LE(peak, threshold + clients);
      EXPECT_GT(short_peak, 0);
    } else {
      EXPECT_LE(peak, 4 * clients);
    }
  }
}

TEST(BoundedStateTest, ForumMixOnTheSingletonServerKeepsStateBoundedByWorkInFlight) {
  ExpectBounded(MakeForumApp(), /*replicated_locks=*/0);
}

TEST(BoundedStateTest, HotelMixOnAThreeNodeRaftGroupKeepsStateBoundedByWorkInFlight) {
  ExpectBounded(MakeHotelApp(), /*replicated_locks=*/3);
}

}  // namespace
}  // namespace radical
