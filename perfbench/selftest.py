#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 1] [--write-pins]

For every workload it checks that
  1. two traced runs at the default seed report exactly the same counters,
     and that they equal the pins in perfbench/design.json;
  2. a run at the confirm seed reads a different input (its fingerprint
     differs) and still passes its oracle;
and, once, that run.py exits non-zero without printing a result when only
BENCHMARK.json and perfbench/ are present.

--write-pins records the default seed's counters in design.json instead of
comparing them (for a change that moves a counter on purpose).
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESIGN = HERE / "design.json"


def run(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def parse(proc, what):
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {what}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(l.split("=", 1)[1] for l in lines
                       if l.startswith("# input_fingerprint="))
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"FAIL {what}: oracle reported {result['failed']} "
                         f"failed of {result['attempted']}")
    return result, fingerprint


def check_bare_checkout():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("apsp_dense", 1, 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("FAIL bare checkout: run.py did not refuse")
    print("ok   bare checkout: run.py exits", proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()

    design = json.loads(DESIGN.read_text())
    seeds = design["seeds"]
    pinned = design["pinned_metrics"]
    new_pins = {}
    for workload in design["workloads"]:
        counters = []
        for attempt in (1, 2):
            result, fp_default = parse(
                run(workload, seeds["default"], args.seconds, 1),
                f"{workload} traced run {attempt}")
            counters.append({k: result["metrics"][k]["value"]
                             for k in pinned})
        if counters[0] != counters[1]:
            diff = {k: (counters[0][k], counters[1][k]) for k in pinned
                    if counters[0][k] != counters[1][k]}
            raise SystemExit(f"FAIL {workload}: traced runs disagree: {diff}")
        new_pins[workload] = counters[0]
        if not args.write_pins:
            want = design["pins"].get(workload)
            if want != counters[0]:
                diff = {k: (want.get(k) if want else None, counters[0][k])
                        for k in pinned
                        if not want or want.get(k) != counters[0][k]}
                raise SystemExit(f"FAIL {workload}: counters differ from "
                                 f"the pins (pinned, now): {diff}")
        print(f"ok   {workload}: two traced runs agree with the pins")

        _, fp_confirm = parse(
            run(workload, seeds["confirm"], args.seconds, 0),
            f"{workload} confirm seed")
        if fp_confirm == fp_default:
            raise SystemExit(f"FAIL {workload}: the confirm seed did not "
                             "change the input")
        print(f"ok   {workload}: confirm seed {seeds['confirm']} reads a "
              "new input and passes its oracle")

    check_bare_checkout()
    if args.write_pins:
        design["pins"] = new_pins
        DESIGN.write_text(json.dumps(design, indent=2) + "\n")
        print("pins written to", DESIGN.relative_to(ROOT))
    print("selftest passed")


if __name__ == "__main__":
    main()
