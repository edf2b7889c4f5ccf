#!/usr/bin/env bash
# Runs a benchmark binary and writes a JSON snapshot suitable for checking in
# as a baseline (bench/BENCH_<mode>.json) or for comparing against one.
#
# Usage: tools/bench_to_json.sh [MODE] [BUILD_DIR] [OUT_JSON]
#
# Modes:
#   kernels (default)  google-benchmark kernel microbenches -> compare with
#                      tools/compare_bench.py against bench/BENCH_kernels.json
#   artifact           artifact spin-up timings + swap-under-load soak via
#                      bench_artifact (cold load vs mmap, zero-copy vs
#                      deep-copy replicas, swap-drain latency, rollback
#                      gates) -> bench/BENCH_artifact.json
#   load               open-loop Poisson load sweep via bench_load: knee
#                      calibration, knee-relative QPS points, per-class
#                      goodput/shed/latency, and the overload gates
#                      (conservation, zero watchdog terminations, bounded
#                      overload p99, priority order, clean drain)
#                      -> bench/BENCH_load.json. The chaos soak with the live
#                      endpoint and the observability-overhead gate are
#                      bench_load flags (--faults/--http, --overhead); run
#                      them directly (see docs/serving.md).
#
# MODE may be omitted; a first argument that is not a known mode is taken as
# BUILD_DIR for backward compatibility.
#
# Environment (kernels mode):
#   ULLSNN_BENCH_REPS      repetitions per benchmark (default 3); the
#                          comparator takes the min, so more reps = less noise
#   ULLSNN_BENCH_FILTER    --benchmark_filter regex (default: everything)
#   ULLSNN_BENCH_MIN_TIME  --benchmark_min_time seconds per repetition, as a
#                          plain double (e.g. 0.1); unset = library default
# Repetitions run in random interleaved order across the whole suite, so the
# repetitions of one benchmark sample different moments of the run: a slow
# spell of a shared host then costs a benchmark at most some of them, not
# all, and the comparator's minimum stays put.
#
# Environment (artifact mode):
#   ULLSNN_BENCH_SCALE         quick|default|full (bench/common.h)
#   ULLSNN_ARTIFACT_SECONDS    soak duration in seconds (default 8)
#   ULLSNN_ARTIFACT_SWAP_EVERY hot-swap every N accepted requests (default 100)
#
# Environment (load mode):
#   ULLSNN_BENCH_SCALE     quick|default|full data/model scale (bench/common.h)
#   ULLSNN_LOAD_SECONDS    seconds per sweep point (default: scale-dependent)
#   ULLSNN_LOAD_REL        comma list of knee-relative QPS multipliers
#                          (default "0.5,0.75,1.0,1.5,2.0,3.0")
#   ULLSNN_LOAD_WORKERS    serving workers (default 2)
#
# The build-info stamp (compiler, flags, git hash) is embedded in
# the kernels JSON "context" object by bench_kernels itself.
set -euo pipefail

# Fail loudly on a missing dependency instead of surfacing as a confusing
# downstream error (e.g. compare_bench.py choking on an empty file).
require() {
  command -v "$1" >/dev/null 2>&1 || {
    echo "error: required tool '$1' not found on PATH" >&2
    exit 1
  }
}

# Refuse to publish anything that does not parse as JSON (a crashed bench
# leaves truncated output), then move it into place atomically so no reader
# — CI artifact upload, compare_bench.py, a baseline refresh — can ever see
# a partial snapshot.
publish_json() {
  local tmp="$1" out="$2"
  if ! python3 -m json.tool "$tmp" >/dev/null; then
    echo "error: benchmark output is not valid JSON — discarding (kept nothing at $out)" >&2
    exit 1
  fi
  mv -f "$tmp" "$out"
}

require python3
require mktemp

MODE="kernels"
case "${1:-}" in
  kernels|artifact|load)
    MODE="$1"
    shift
    ;;
esac

BUILD_DIR="${1:-build}"

if [[ "$MODE" == "artifact" ]]; then
  OUT="${2:-BENCH_artifact.json}"
  BIN="$BUILD_DIR/bench/bench_artifact"
  if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not found or not executable (build the bench_artifact target first)" >&2
    exit 1
  fi
  # bench_artifact exits non-zero if the swap-under-load soak loses a
  # request, activates a corrupt artifact, or never auto-rolls back.
  TMP_OUT="$(mktemp "$OUT.XXXXXX")"
  trap 'rm -f "$TMP_OUT"' EXIT
  "$BIN" --spinup --soak \
    --seconds "${ULLSNN_ARTIFACT_SECONDS:-8}" \
    --swap-every "${ULLSNN_ARTIFACT_SWAP_EVERY:-100}" \
    --json "$TMP_OUT"
  publish_json "$TMP_OUT" "$OUT"
  echo "wrote $OUT (artifact spin-up + swap-under-load snapshot)" >&2
  exit 0
fi

if [[ "$MODE" == "load" ]]; then
  OUT="${2:-BENCH_load.json}"
  BIN="$BUILD_DIR/bench/bench_load"
  if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not found or not executable (build the bench_load target first)" >&2
    exit 1
  fi
  # bench_load exits non-zero when any overload gate fails: conservation,
  # zero watchdog terminations, sub-knee interactive fulfillment, bounded
  # overload p99, interactive-over-batch priority order, goodput retention
  # past the knee, or a dirty drain after the 3x-knee point.
  args=(--json)
  TMP_OUT="$(mktemp "$OUT.XXXXXX")"
  trap 'rm -f "$TMP_OUT"' EXIT
  args+=("$TMP_OUT" --workers "${ULLSNN_LOAD_WORKERS:-2}"
         --rel "${ULLSNN_LOAD_REL:-0.5,0.75,1.0,1.5,2.0,3.0}")
  [[ -n "${ULLSNN_LOAD_SECONDS:-}" ]] && args+=(--seconds "$ULLSNN_LOAD_SECONDS")
  "$BIN" "${args[@]}"
  publish_json "$TMP_OUT" "$OUT"
  echo "wrote $OUT (open-loop load sweep snapshot)" >&2
  exit 0
fi

OUT="${2:-BENCH_kernels.json}"
REPS="${ULLSNN_BENCH_REPS:-3}"
FILTER="${ULLSNN_BENCH_FILTER:-}"
MIN_TIME="${ULLSNN_BENCH_MIN_TIME:-}"

BIN="$BUILD_DIR/bench/bench_kernels"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found or not executable (build the bench_kernels target first)" >&2
  exit 1
fi

args=(
  --benchmark_format=json
  --benchmark_repetitions="$REPS"
  --benchmark_report_aggregates_only=false
  --benchmark_enable_random_interleaving=true
)
[[ -n "$FILTER" ]] && args+=(--benchmark_filter="$FILTER")
[[ -n "$MIN_TIME" ]] && args+=(--benchmark_min_time="$MIN_TIME")

# Capture to a temp file first: google-benchmark streams JSON, so a crash
# mid-suite would otherwise leave a truncated-but-plausible baseline.
TMP_OUT="$(mktemp "$OUT.XXXXXX")"
trap 'rm -f "$TMP_OUT"' EXIT
"$BIN" "${args[@]}" > "$TMP_OUT"
publish_json "$TMP_OUT" "$OUT"

runs="$(grep -c '"run_name"' "$OUT")" || runs=0
if [[ "$runs" -eq 0 ]]; then
  echo "error: $OUT contains no benchmark runs (filter '${FILTER:-<none>}' matched nothing?)" >&2
  exit 1
fi
echo "wrote $OUT ($runs run entries)" >&2
