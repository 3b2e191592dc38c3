#!/usr/bin/env sh
# Configure, build, and run the full test suite — the one command a clean
# checkout (or CI) needs. Usage: tools/check.sh [build-dir]
#
# The one ctest pass covers every deployment shape: the end-to-end suites
# run every test once per profile of tests/deployment_profile.h (singleton,
# sharded, sharded_batched, sessions) and the replicated-deployment tests run at
# shards = 1 and 4, so no mode reruns the suite under an environment
# variable. An always-on source check fails when anything under src/ calls
# getenv: a deployment's shape comes only from its RadicalConfig. Another
# fails when anything under src/raft/ includes src/lvi/ or src/analysis/:
# the consensus layer knows nothing of the locks it replicates.
#
# CHECK_SANITIZE=1 tools/check.sh  builds with AddressSanitizer +
# UndefinedBehaviorSanitizer (in its own build directory, default
# build-asan) and runs the same suite under them; any finding aborts the
# offending test.
#
# CHECK_WERROR=1 tools/check.sh  builds with -Werror (own build directory,
# default build-werror) so any warning fails the build.
#
# CHECK_ASSERTS=1 tools/check.sh  builds RelWithDebInfo as -O2 -g without
# -DNDEBUG (own build directory, default build-asserts) and runs the same
# suite, so every assert in src/ is checked; every other mode compiles them
# out.
#
# CHECK_BENCH_SMOKE=1 tools/check.sh  additionally runs the benches briefly
# (RADICAL_BENCH_SMOKE=1 shrinks the load inside bench_util) and validates
# the machine-readable BENCH_radical.json and Chrome trace-event exports
# against their schemas with tools/bench_json_check, and requires Fig 5's
# per-region rows: every app's Radical run exports each region's share of
# failed validations beside its per-region p50 and p99.
#
# CHECK_REPLICATED=1 tools/check.sh  additionally runs
# bench/sec5_6_replication in smoke mode — which includes the serial vs
# batched acquire table, the multi-Raft lock-group throughput curve and the
# leader kill/rejoin linearizability sweep (the bench exits nonzero on lost
# replies or a non-linearizable history) — and schema-checks the exported
# replicated-point fields with tools/bench_json_check (which fails an
# acquire point whose batched_ms exceeds its serial_ms), asserting all three
# curves made it into the report.
#
# CHECK_SESSION=1 tools/check.sh  additionally runs bench/consistency_spectrum
# in smoke mode — which exits nonzero on a missing final, a preview arriving
# after its final, a sub-100% reply rate across the mid-run PoP kill, or a
# monotonic-read violation — and schema-checks the exported session-point
# fields (preview_gap_ms, preview_accuracy_pct, failovers) with
# tools/bench_json_check, asserting both session curves made it into the
# report.
#
# CHECK_MICRO=1 tools/check.sh  additionally runs the hand-timed simulator-
# core microbenchmarks (bench/micro_core) with an events-per-second floor
# (CHECK_MICRO_EVENTS_FLOOR, default 25M/s — the pre-timing-wheel core did
# ~11M/s, so the floor fails on a regression to the old allocation-heavy
# path while leaving slack for slow CI machines) and schema-checks the
# exported "micro" section of BENCH_radical.json.
#
# CHECK_OVERLOAD=1 tools/check.sh  additionally runs the open-loop overload
# sweep (bench/throughput_server in smoke mode, which includes the
# uncontrolled/controlled saturation curves from RunOverload) and
# schema-checks the exported overload-control point fields (rejected, shed,
# deadline_exceeded, queue_depth_peak) with tools/bench_json_check, then
# asserts both overload curves made it into the report.
set -eu

SOURCE_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu)"

if [ "${CHECK_SANITIZE:-0}" = "1" ]; then
  BUILD_DIR="${1:-build-asan}"
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake -B "$BUILD_DIR" -S "$SOURCE_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
elif [ "${CHECK_ASSERTS:-0}" = "1" ]; then
  BUILD_DIR="${1:-build-asserts}"
  cmake -B "$BUILD_DIR" -S "$SOURCE_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
elif [ "${CHECK_WERROR:-0}" = "1" ]; then
  BUILD_DIR="${1:-build-werror}"
  cmake -B "$BUILD_DIR" -S "$SOURCE_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRADICAL_WERROR=ON
else
  BUILD_DIR="${1:-build}"
  cmake -B "$BUILD_DIR" -S "$SOURCE_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

if grep -rn getenv "$SOURCE_DIR/src"; then
  echo "check.sh: src/ must not read the environment (getenv above)" >&2
  exit 1
fi

if grep -rnE '#include "src/(lvi|analysis)/' "$SOURCE_DIR/src/raft"; then
  echo "check.sh: src/raft/ must not include src/lvi/ or src/analysis/ (above)" >&2
  exit 1
fi

cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

if [ "${CHECK_BENCH_SMOKE:-0}" = "1" ]; then
  SMOKE_DIR="$BUILD_DIR/bench-smoke"
  mkdir -p "$SMOKE_DIR"
  echo "== bench smoke: fig4_end_to_end (BENCH report schema) =="
  RADICAL_BENCH_SMOKE=1 RADICAL_BENCH_JSON="$SMOKE_DIR/BENCH_radical.json" \
    "$BUILD_DIR/bench/fig4_end_to_end" > "$SMOKE_DIR/fig4_end_to_end.out"
  "$BUILD_DIR/tools/bench_json_check" "$SMOKE_DIR/BENCH_radical.json"
  echo "== bench smoke: fig5_regional (per-region rows) =="
  RADICAL_BENCH_SMOKE=1 RADICAL_BENCH_JSON="$SMOKE_DIR/BENCH_fig5.json" \
    "$BUILD_DIR/bench/fig5_regional" > "$SMOKE_DIR/fig5_regional.out"
  "$BUILD_DIR/tools/bench_json_check" "$SMOKE_DIR/BENCH_fig5.json"
  runs="$(grep -o '/radical"' "$SMOKE_DIR/BENCH_fig5.json" | wc -l)"
  rows="$(grep -o '"per_region_validation_fail_pct"' "$SMOKE_DIR/BENCH_fig5.json" | wc -l)"
  if [ "$runs" -eq 0 ] || [ "$rows" -ne "$runs" ]; then
    echo "check.sh: fig5_regional exported per-region validation rows for $rows of $runs" \
      "Radical runs" >&2
    exit 1
  fi
  echo "== bench smoke: latency_breakdown (trace-event schema) =="
  RADICAL_BENCH_SMOKE=1 RADICAL_TRACE_JSON="$SMOKE_DIR/trace.json" \
    "$BUILD_DIR/bench/latency_breakdown" > "$SMOKE_DIR/latency_breakdown.out"
  "$BUILD_DIR/tools/bench_json_check" --trace "$SMOKE_DIR/trace.json"
fi

if [ "${CHECK_OVERLOAD:-0}" = "1" ]; then
  OVERLOAD_DIR="$BUILD_DIR/overload"
  mkdir -p "$OVERLOAD_DIR"
  echo "== overload: open-loop saturation sweep (uncontrolled vs controlled) =="
  RADICAL_BENCH_SMOKE=1 RADICAL_BENCH_JSON="$OVERLOAD_DIR/BENCH_radical.json" \
    "$BUILD_DIR/bench/throughput_server" > "$OVERLOAD_DIR/throughput_server.out"
  cat "$OVERLOAD_DIR/throughput_server.out"
  "$BUILD_DIR/tools/bench_json_check" "$OVERLOAD_DIR/BENCH_radical.json"
  for curve in open_loop_overload_uncontrolled open_loop_overload_controlled; do
    if ! grep -q "\"$curve\"" "$OVERLOAD_DIR/BENCH_radical.json"; then
      echo "check.sh: missing overload curve '$curve' in BENCH_radical.json" >&2
      exit 1
    fi
  done
fi

if [ "${CHECK_REPLICATED:-0}" = "1" ]; then
  REPL_DIR="$BUILD_DIR/replicated"
  mkdir -p "$REPL_DIR"
  echo "== replicated: multi-Raft throughput + leader kill/rejoin sweep =="
  RADICAL_BENCH_SMOKE=1 RADICAL_BENCH_JSON="$REPL_DIR/BENCH_radical.json" \
    "$BUILD_DIR/bench/sec5_6_replication" > "$REPL_DIR/sec5_6_replication.out"
  cat "$REPL_DIR/sec5_6_replication.out"
  "$BUILD_DIR/tools/bench_json_check" "$REPL_DIR/BENCH_radical.json"
  for curve in replicated_acquire replicated_shards replicated_failover; do
    if ! grep -q "\"$curve\"" "$REPL_DIR/BENCH_radical.json"; then
      echo "check.sh: missing replicated curve '$curve' in BENCH_radical.json" >&2
      exit 1
    fi
  done
fi

if [ "${CHECK_SESSION:-0}" = "1" ]; then
  SESSION_DIR="$BUILD_DIR/session"
  mkdir -p "$SESSION_DIR"
  echo "== session: preview/final + PoP-failover spectrum bench =="
  RADICAL_BENCH_SMOKE=1 RADICAL_BENCH_JSON="$SESSION_DIR/BENCH_radical.json" \
    "$BUILD_DIR/bench/consistency_spectrum" > "$SESSION_DIR/consistency_spectrum.out"
  cat "$SESSION_DIR/consistency_spectrum.out"
  "$BUILD_DIR/tools/bench_json_check" "$SESSION_DIR/BENCH_radical.json"
  for curve in preview_vs_final session_failover; do
    if ! grep -q "\"$curve\"" "$SESSION_DIR/BENCH_radical.json"; then
      echo "check.sh: missing session curve '$curve' in BENCH_radical.json" >&2
      exit 1
    fi
  done
fi

if [ "${CHECK_MICRO:-0}" = "1" ]; then
  MICRO_DIR="$BUILD_DIR/micro"
  mkdir -p "$MICRO_DIR"
  echo "== micro: simulator-core events/sec + envelope round-trip =="
  # --benchmark_filter matches nothing: only the hand-timed export runs.
  RADICAL_BENCH_JSON="$MICRO_DIR/BENCH_radical.json" \
    RADICAL_MICRO_EVENTS_FLOOR="${CHECK_MICRO_EVENTS_FLOOR:-25000000}" \
    "$BUILD_DIR/bench/micro_core" --benchmark_filter='^$' > "$MICRO_DIR/micro_core.out"
  cat "$MICRO_DIR/micro_core.out"
  "$BUILD_DIR/tools/bench_json_check" "$MICRO_DIR/BENCH_radical.json"
fi
