#!/usr/bin/env bash
# Thread-safety gate self-check.
#
# Three assertions, all against Clang's -Werror=thread-safety analysis:
#   1. Every annotated concurrency header in src/ parses and analyzes clean.
#   2. The seeded unlocked access in tests/static/thread_safety_violation.cpp
#      is REJECTED — i.e. the gate has teeth, the flags are not silently
#      ignored.
#   3. The ULLSNN_EXPECT_CLEAN variant of the same fixture (violation
#      replaced by a locked read) is ACCEPTED — i.e. a rejection in (2) comes
#      from the analysis, not from an unrelated compile error.
#
# Exit codes: 0 = all checks pass, 77 = no Clang available (ctest skip via
# SKIP_RETURN_CODE), anything else = the gate is broken.
#
# Usage: tools/check_thread_safety.sh
# Env:   CLANGXX=/path/to/clang++ to override compiler discovery.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
fixture="$root/tests/static/thread_safety_violation.cpp"

clangxx=""
for candidate in "${CLANGXX:-}" clang++ clang++-20 clang++-19 clang++-18 \
                 clang++-17 clang++-16 clang++-15 clang++-14; do
  if [ -n "$candidate" ] && command -v "$candidate" >/dev/null 2>&1; then
    clangxx="$candidate"
    break
  fi
done
if [ -z "$clangxx" ]; then
  echo "SKIP: no clang++ found; the thread-safety analysis is Clang-only" >&2
  exit 77
fi
echo "using $clangxx ($("$clangxx" --version | head -n 1))"

flags=(-std=c++20 -fsyntax-only -Wthread-safety -Werror=thread-safety "-I$root")

# The annotated concurrency surface, each header compiled standalone so a
# missing include or an annotation that only parses in one inclusion order
# cannot hide. Keep in sync with docs/concurrency.md.
headers=(
  src/util/thread_annotations.h
  src/util/mutex.h
  src/util/parallel.h
  src/serve/bounded_queue.h
  src/serve/request.h
  src/serve/time_step_governor.h
  src/serve/engine.h
  src/obs/metrics.h
  src/obs/ring.h
  src/obs/flight_recorder.h
  src/obs/slo.h
  src/obs/http_endpoint.h
  src/artifact/model_registry.h
  src/robust/health.h
  src/robust/fault_injector.h
)

echo "[1/3] annotated headers analyze clean"
for header in "${headers[@]}"; do
  if ! printf '#include "%s"\n' "$header" | \
       "$clangxx" "${flags[@]}" -x c++ - ; then
    echo "FAIL: $header does not pass -Werror=thread-safety" >&2
    exit 1
  fi
done

echo "[2/3] seeded unlocked access is rejected"
err_log="$(mktemp)"
trap 'rm -f "$err_log"' EXIT
if "$clangxx" "${flags[@]}" "$fixture" 2>"$err_log"; then
  echo "FAIL: the deliberate GUARDED_BY violation compiled — the gate has no teeth" >&2
  exit 1
fi
if ! grep -q "thread-safety" "$err_log"; then
  echo "FAIL: fixture rejected, but not by the thread-safety analysis:" >&2
  cat "$err_log" >&2
  exit 1
fi

echo "[3/3] locked variant of the same fixture is accepted"
if ! "$clangxx" "${flags[@]}" -DULLSNN_EXPECT_CLEAN "$fixture"; then
  echo "FAIL: the properly locked fixture does not compile" >&2
  exit 1
fi

echo "OK: thread-safety gate verified (clean headers, violation rejected)"
