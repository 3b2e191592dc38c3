#!/usr/bin/env sh
# Diffs every bench's output against another revision's.
#
# Usage: tools/bench_diff.sh <rev>
#
# Builds <rev> (from `git archive`, so the working tree is untouched) and the
# working tree, runs every binary under bench/ on both, and compares each
# bench's stdout and its BENCH JSON report. The benches are deterministic per
# seed, so any difference is a behaviour change. Wall-clock fields
# ("wall_seconds", "requests_per_wall_second") are stripped before the
# comparison, and micro_core is skipped: its output is host time. Exits
# nonzero if any bench differs or fails, and prints the differences.
#
# BENCH_DIFF_DIR (default: a fresh mktemp directory) holds <rev>'s tree and
# build and both trees' outputs; BUILD_DIR (default build) is the working
# tree's build.
# Not part of tools/check.sh: the benches take about a minute per tree.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
REV="$1"
SOURCE_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu)"
WORK="${BENCH_DIFF_DIR:-$(mktemp -d)}"
BUILD_DIR="${BUILD_DIR:-build}"
case "$BUILD_DIR" in
  /*) ;;
  *) BUILD_DIR="$SOURCE_DIR/$BUILD_DIR" ;;
esac

# A rerun with the same BENCH_DIFF_DIR and <rev> reuses <rev>'s build.
commit="$(git -C "$SOURCE_DIR" rev-parse "$REV^{commit}")"
if [ "$(cat "$WORK/rev.commit" 2>/dev/null)" != "$commit" ]; then
  rm -rf "$WORK/rev"
  mkdir -p "$WORK/rev"
  git -C "$SOURCE_DIR" archive "$commit" | tar -x -C "$WORK/rev"
  echo "$commit" >"$WORK/rev.commit"
fi
for tree in "$WORK/rev:$WORK/rev/build" "$SOURCE_DIR:$BUILD_DIR"; do
  src="${tree%%:*}"
  build="${tree#*:}"
  cmake -B "$build" -S "$src" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$build" -j "$JOBS" >/dev/null
done

benches="$(sed -n 's/^radical_bench(\([a-z0-9_]*\).*/\1/p' "$SOURCE_DIR/bench/CMakeLists.txt")"
status=0
for side in rev new; do
  if [ "$side" = rev ]; then build="$WORK/rev/build"; else build="$BUILD_DIR"; fi
  out="$WORK/out.$side"
  rm -rf "$out"
  mkdir -p "$out"
  for bench in $benches; do
    # Each bench runs in its build tree, so nothing lands in the source tree,
    # and names its report by a relative path, which it prints.
    json="$build/bench_diff.$bench.json"
    rm -f "$json"
    if ! (cd "$build" && RADICAL_BENCH_JSON="bench_diff.$bench.json" "./bench/$bench" \
            >"$out/$bench.stdout" 2>&1); then
      echo "FAILED: $side $bench" >&2
      status=1
    fi
    if [ -f "$json" ]; then
      sed -e 's/"wall_seconds":[-0-9.e+]*,\{0,1\}//g' \
          -e 's/"requests_per_wall_second":[-0-9.e+]*,\{0,1\}//g' "$json" >"$out/$bench.json"
    fi
  done
done

for bench in $benches; do
  for kind in stdout json; do
    a="$WORK/out.rev/$bench.$kind"
    b="$WORK/out.new/$bench.$kind"
    if [ ! -f "$a" ] && [ ! -f "$b" ]; then
      continue
    fi
    if diff -u "$a" "$b" >"$WORK/$bench.$kind.diff" 2>&1; then
      echo "identical: $bench $kind"
    else
      echo "DIFFERS:   $bench $kind"
      cat "$WORK/$bench.$kind.diff"
      status=1
    fi
  done
done
echo "outputs in $WORK"
exit "$status"
