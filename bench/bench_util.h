// Shared harness for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper. RunApp
// spins up a fresh simulator + network + deployment of the requested kind,
// seeds the application, drives the paper's workload mix with closed-loop
// clients in every deployment location, and returns per-region/per-function
// latency summaries plus protocol counters.

#ifndef RADICAL_BENCH_BENCH_UTIL_H_
#define RADICAL_BENCH_BENCH_UTIL_H_

#include <map>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/radical/deployment.h"
#include "src/radical/load_generator.h"

namespace radical {

enum class DeployKind {
  kRadical,   // Full Radical: caches + speculative execution + LVI.
  kBaseline,  // Primary-datacenter baseline (§5.3).
  kIdeal,     // Inconsistent local storage — the red line (§5.3).
};

const char* DeployKindName(DeployKind kind);

struct ExperimentResult {
  Summary overall;
  std::map<Region, Summary> per_region;
  std::map<std::string, Summary> per_function;
  std::map<std::pair<Region, std::string>, Summary> per_region_function;
  uint64_t total_requests = 0;
  // Radical-only protocol statistics (zeros otherwise).
  double validation_success_rate = 0.0;
  // Failed validations of writers, each answered by a backup execution at
  // the primary.
  uint64_t backup_execs = 0;
  // Failed validations of read-only requests, each answered with the
  // primary's snapshot and rerun at the PoP (those that went on to the
  // direct path included).
  uint64_t snapshot_reruns = 0;
  // Per region, the percentage of its requests whose validation failed
  // (either answer above).
  std::map<Region, double> per_region_validation_fail_pct;
  uint64_t reexecutions = 0;
  // Runs at the primary whose locks did not cover the keys they touched,
  // each rerun under the locks of what it touched.
  uint64_t primary_reruns = 0;
  uint64_t lock_waits = 0;  // Acquisitions that queued at the lock table.
  uint64_t speculations = 0;
  uint64_t wan_bytes = 0;
  uint64_t lvi_requests = 0;
  // Simulator performance: virtual seconds covered by the run, host
  // wall-clock seconds spent inside sim.Run(), and simulated requests
  // completed per host second (throughput of the simulator itself).
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  double requests_per_wall_second = 0.0;
};

struct RunOptions {
  uint64_t seed = 1;
  int clients_per_region = 10;
  uint64_t requests_per_client = 200;
  // Closed-loop think time between a client's requests. Logical clients
  // model real users; the aggregate arrival rate (50 clients / ~4.2 s cycle
  // ≈ 12 req/s) keeps hot-key write-lock windows small, as in the paper's
  // deployment — validation success stays ~95% even at zipf 0.99.
  SimDuration think_time = Seconds(4);
  std::vector<Region> regions = DeploymentRegions();
  RadicalConfig config;
  // Drops every cache push on the fabric (a DropRule on kCachePush): the
  // paper's pull-only cache, repaired only by failed validations.
  bool pull_only_cache = false;
};

// Runs one application's workload against one deployment kind. When
// RADICAL_BENCH_SMOKE=1 is set in the environment the load is shrunk to a
// few requests per client so tools/check.sh can smoke every bench quickly;
// results are then meaningless as measurements but still structurally valid.
ExperimentResult RunApp(const AppSpec& app, DeployKind kind, const RunOptions& options = {});

// True when RADICAL_BENCH_SMOKE=1: benches may print a marker and skip
// expensive sweeps beyond what RunApp already shrinks.
bool BenchSmokeMode();

// --- BENCH_radical.json ------------------------------------------------------

// One measured point of a throughput curve (bench/throughput_server.cc): the
// server configuration it was taken at, the load offered, and what came back.
struct ThroughputPoint {
  int shards = 1;
  int clients = 0;            // Total logical clients (closed loop) or 0.
  double offered_rps = 0.0;   // Arrival rate presented to the server.
  double throughput_rps = 0.0;  // Completions per second over the run.
  // Completions per second whose *first* validation succeeded — work that
  // produced its answer without an abort/re-execution round trip. Under
  // saturation throughput can stay flat while goodput collapses into
  // re-execution churn; a point is only healthy when the two track.
  double goodput_rps = 0.0;
  uint64_t aborts = 0;          // Validation failures during this point.
  uint64_t reexecutions = 0;    // Re-executions during this point.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  // --- Overload control (bench/throughput_server RunOverload) --------------
  // Whether the point ran with bounded admission + deadline shedding on; the
  // counters below are the server's backpressure activity during the point.
  bool overload_control = false;
  uint64_t rejected = 0;          // kOverloaded early rejections (admission).
  uint64_t shed = 0;              // Deadline sheds (admission + mid-pipeline).
  uint64_t deadline_exceeded = 0;  // Client-side deadline completions.
  uint64_t queue_depth_peak = 0;  // Peak admission-queue depth (requests).
  // --- Replicated locks (bench/sec5_6_replication multi-Raft curves) --------
  // Number of Raft lock groups the point ran with (0 = not a replicated
  // point; the group below is then omitted from the JSON).
  int raft_groups = 0;
  uint64_t leader_kills = 0;   // Group leaders crashed mid-run (fault sweep).
  double replies_pct = 0.0;    // Requests answered, percent of issued.
  bool linearizable = false;   // Wing&Gong check over the observed history.
  // Releases the lock service submitted for stray grants (grants that
  // committed after their execution released); 0 on a fault-free point.
  uint64_t compensating_releases = 0;
  int raft_nodes = 0;               // Nodes per Raft group.
  double appends_per_commit = 0.0;  // AppendEntries sent per committed entry.
  // --- Replicated acquisition cost (bench/sec5_6_replication) --------------
  // Locks one execution acquires (0 = not an acquire point; the group below
  // is then omitted from the JSON). Medians of the acquisition latency when
  // each lock is its own commit (the paper's serial implementation) and when
  // the keys go as one run in one commit (the deployed path).
  int locks = 0;
  double serial_ms = 0.0;
  double batched_ms = 0.0;
  // --- Consistency spectrum (bench/consistency_spectrum session curves) -----
  // Whether the point measured the preview/final session path; the fields
  // below form an optional JSON group keyed on this flag (omitted when
  // false; tools/bench_json_check validates the group's ranges).
  bool session_point = false;
  double preview_gap_ms = 0.0;        // Mean final-minus-preview latency gap.
  double preview_p50_ms = 0.0;        // Preview-delivery latency median.
  double preview_accuracy_pct = 0.0;  // Previews whose value matched the final.
  uint64_t previews = 0;              // Previews delivered during the point.
  uint64_t failovers = 0;             // Session re-binds (PoP kills survived).
};

// A named throughput-vs-configuration curve, exported under "curves" in the
// report (schema_version 2; tools/bench_json_check validates the shape).
struct ThroughputCurve {
  std::string name;
  std::vector<ThroughputPoint> points;
};

// One hand-timed microbenchmark result (bench/micro_core.cc): host-CPU cost
// of a core simulator operation. Exported under "micro" in the report —
// this is simulator *implementation* performance (events per host second),
// not simulated-system latency, so it lives beside the experiments rather
// than inside one.
struct MicroResult {
  std::string name;
  uint64_t iterations = 0;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
};

// Machine-readable benchmark record. Each bench constructs one report, Add()s
// an entry per (app, deployment) experiment it ran, and calls Write() at the
// end. The file destination is the RADICAL_BENCH_JSON environment variable
// when set, otherwise "BENCH_radical.json" in the working directory; setting
// RADICAL_BENCH_JSON to the empty string disables the export.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  void Add(const std::string& experiment_name, const ExperimentResult& result);
  void AddCurve(ThroughputCurve curve);
  void AddMicro(MicroResult result);

  // Serializes the report (schema documented in docs/observability.md).
  std::string ToJson() const;

  // Writes ToJson() to the destination described above. Returns the path
  // written, or an empty string when disabled or on I/O failure.
  std::string Write() const;

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, ExperimentResult>> entries_;
  std::vector<ThroughputCurve> curves_;
  std::vector<MicroResult> micro_;
};

// --- Table printing ----------------------------------------------------------

// Prints an aligned table: `widths[i]` column characters per cell.
void PrintTableHeader(const std::vector<std::string>& cols, const std::vector<int>& widths);
void PrintTableRow(const std::vector<std::string>& cells, const std::vector<int>& widths);
void PrintRule(const std::vector<int>& widths);

// "123.4" style fixed-point rendering of a millisecond quantity.
std::string Ms(double ms, int digits = 1);

}  // namespace radical

#endif  // RADICAL_BENCH_BENCH_UTIL_H_
