#!/usr/bin/env python3
"""Builds and runs the datalogo benchmark harness for one workload.

    python3 perfbench/run.py --workload apsp_dense --seed 1 --seconds 25 --trace 0

Builds perfbench_harness (perfbench/CMakeLists.txt, Release) under
.bench_build/perfbench next to the repository's sources, then runs it with
the workload's sizes from perfbench/design.json. The harness's output is
passed through; its last line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the spans are written to
.bench_build/traces/<workload>-seed<seed>.jsonl.

Exits non-zero without printing a result when the sources are missing, the
build fails, or the harness fails or times out.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
HARNESS = BUILD / "perfbench_harness"

# Knobs that would take the engine off its defaults if the caller's
# environment happened to set them.
ENGINE_ENV = ("DATALOGO_SCAN", "DATALOGO_VALUES", "DATALOGO_THREADS")

RUN_DEADLINE_S = 175  # a run, build excluded, must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, retry=None):
    """Runs a build step, appending its output to `log`. On failure runs
    `retry` and the step once more, then fails loudly."""
    for attempt in (0, 1):
        with open(log, "a") as out:
            status = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT).returncode
        if status == 0:
            return
        if attempt == 0 and retry is not None:
            retry()
        else:
            break
    sys.stderr.write(Path(log).read_text()[-8000:])
    fail(f"build step failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "datalogo.h").is_file():
        fail(f"no datalogo sources in {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD_ROOT / "build.log"
    # A build tree configured from another source path (a copied checkout)
    # cannot be reconfigured in place: start it afresh.
    run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                "-DCMAKE_BUILD_TYPE=Release"], log,
               retry=lambda: shutil.rmtree(BUILD, ignore_errors=True))
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "--target",
                "perfbench_harness", "-j", jobs], log)
    if not HARNESS.is_file():
        fail("build produced no harness binary")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    design = json.loads((HERE / "design.json").read_text())
    workload = design["workloads"].get(args.workload)
    if workload is None:
        fail(f"unknown workload '{args.workload}'")

    build()
    cmd = [str(HARNESS), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    for key, value in workload["params"].items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]

    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_DEADLINE_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("harness printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(f"# harness wall {time.monotonic() - started:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
