#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark for one workload.

    python3 perfbench/run.py --workload solve_cold|serve_rw|fleet_zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (CMake,
Release) under $CARGO_TARGET_DIR or .bench_build, runs the benchmark binary
with a scratch directory inside the build tree, passes its report through,
and prints as the last line one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1).  Exits non-zero, without that line, when the build or the run
fails; exits 1 after printing it when an output failed its check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RESULT_TAG = "PERFBENCH_RESULT "
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out: Path) -> Path:
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    # The traced run keeps its span dump (trace/spans-<workload>.tsv).
    workdir = out / ("trace" if args.trace else "run")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        if args.trace == 0:
            shutil.rmtree(workdir, ignore_errors=True)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if result is None:
        sys.exit(f"perfbench: {args.workload} exited {proc.returncode} without a result")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            sys.exit(f"perfbench: {args.workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            sys.exit(f"perfbench: {m['name']} reported in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = proc.returncode == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
