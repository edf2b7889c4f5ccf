#!/usr/bin/env python3
"""Build and run one benchmark workload; the result is the last stdout line.

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 20 --trace 0

Workloads: serve-steady, serve-overload, convert (see perfbench/NOTES.md).
Run from anywhere; everything is built and kept under .bench_build/ at the
root of the checkout: the CMake build, the trained model fixture (made once
by a seeded command, then loaded with a CRC check), packed artifacts and the
span logs of traced runs. Exits non-zero without a result line when the
build, the fixture or any output check fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "cmake"
STATE = WORK / "state"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-steady", "serve-overload", "convert")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def step(cmd, log, timeout):
    """Run a build step, appending its output to `log`; fail on error."""
    with open(log, "a") as out:
        try:
            code = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            code = -1
    if code != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{' '.join(str(c) for c in cmd)} failed")


def build():
    WORK.mkdir(exist_ok=True)
    log = WORK / "build.log"
    if not (BUILD / "CMakeCache.txt").exists():
        step(["cmake", "-S", "perfbench", "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             log, 300)
    step(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"], log, 800)
    STATE.mkdir(exist_ok=True)
    if not (STATE / "fixture.ckpt").exists():
        step([str(BINARY), "--make-fixture", "--state", str(STATE)], WORK / "fixture.log", 600)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", str(STATE)]
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    body, last = lines[:-1], (lines[-1] if lines else "")
    sys.stdout.write("".join(line + "\n" for line in body))
    try:
        result = json.loads(last)
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if run.returncode != 0 or not ok:
        # A failed run has no result: its line goes to stderr for diagnosis.
        print(last, file=sys.stderr)
        fail(f"{args.workload} failed (exit {run.returncode})")
    print(last, flush=True)


if __name__ == "__main__":
    main()
