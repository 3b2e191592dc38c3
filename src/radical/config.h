// RadicalConfig: deployment-wide tuning knobs.
//
// Defaults reproduce the paper's AWS deployment (§5.2): ~12 ms Lambda
// invocation, ~2 ms to load the WASM blob, DynamoDB-speed storage in every
// location (the paper deliberately uses DynamoDB for the caches too, to
// isolate the effect of the architecture), and the LVI server colocated with
// the primary in Virginia.

#ifndef RADICAL_SRC_RADICAL_CONFIG_H_
#define RADICAL_SRC_RADICAL_CONFIG_H_

#include "src/kv/cache_store.h"
#include "src/kv/versioned_store.h"
#include "src/lvi/lvi_server.h"

namespace radical {

// Client-side request-lifecycle policy: per-attempt timeouts, exponential
// backoff and an attempt budget for every path a request's messages take.
// Retries are safe because exec_ids make the server side idempotent — a
// retried request replays the cached response, re-attaches to the in-flight
// pipeline, or hits the existing intent/idempotency tables; it never
// re-locks or re-executes (see DESIGN.md, "Failure handling & retries").
struct RetryPolicy {
  bool enabled = true;
  // Initial per-attempt timeout. Covers the worst WAN round trip in the
  // paper's matrix (~151 ms) plus server-side queueing with a wide margin,
  // so the loss-free benchmarks never retry spuriously.
  SimDuration request_timeout = Millis(1200);
  // Timeout multiplier per retry, capped at max_backoff.
  double backoff = 2.0;
  SimDuration max_backoff = Seconds(5);
  // Attempts on the LVI path (1 = no retry). Exhausting them degrades the
  // request to InvokeDirect, which keeps retrying with capped backoff until
  // the server answers — every Invoke eventually calls done once the
  // near-storage location is reachable again.
  int max_lvi_attempts = 4;
};

struct RadicalConfig {
  // §5.5 latency components (1) and (2): function instantiation and loading
  // the WebAssembly blob from disk.
  SimDuration lambda_invoke = Millis(12);
  SimDuration blob_load = Millis(2);
  // §5.5 component (3): invoking the extracted f^rw in the WASM runtime
  // (fixed overhead on top of f^rw's own dependent reads). This cost is on
  // the critical path — f^rw runs strictly before f (§3.3, §7).
  SimDuration frw_invoke_overhead = Millis(3);

  VersionedStoreOptions primary_store;
  CacheStoreOptions cache;
  LviServerOptions server;  // Its exec_limits bind every execution.
  RetryPolicy retry;

  // Ablation switch (bench/ablation_design). Off: the function runs only
  // after the LVI response validates, i.e. no overlap between coordination
  // and execution.
  bool speculation_enabled = true;
};

}  // namespace radical

#endif  // RADICAL_SRC_RADICAL_CONFIG_H_
