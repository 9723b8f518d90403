#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload repro|serve-tiered \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/ (a Release CMake build of ../src plus the benchmark) under
.bench_build/perfbench; later runs only rebuild what changed. The last line
of standard output is the benchmark's JSON result.

Besides the checks the benchmark makes inside one process, this wrapper
keeps the simulated-output digest of every (workload, seed) it has run in
.bench_build/perfbench/digests and marks a run incorrect when the digest
differs from an earlier run of the same workload and seed, traced or not.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run must finish within 180 s; leave the wrapper room to report.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def check_digest(workload, seed, digest):
    """True when `digest` matches every earlier run of (workload, seed)."""
    directory = os.path.join(BUILD, "digests")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-%d" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != digest:
            print("digest %s differs from an earlier run's %s" %
                  (digest, earlier), file=sys.stderr)
            return False
        return True
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


def attach_units(measured, traced, correct):
    """The BENCHMARK.json metric list of this run, with units.

    Every end-to-end metric must be measured by a correct run; a per-layer
    metric the workload does not exercise reports 0. None on a violation.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in spec:
        value = measured.get(m["name"], 0 if traced else None)
        if value is None:
            if not correct:
                continue
            print("perfbench: %s not measured" % m["name"], file=sys.stderr)
            return None
        if not math.isfinite(value):
            print("perfbench: %s is not finite" % m["name"], file=sys.stderr)
            return None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    # Terminated, exit through SystemExit so subprocess.run kills and reaps
    # the build or benchmark process it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["repro", "serve-tiered"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print("perfbench: exit code %d" % run.returncode, file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")),
                  None)
    if digest is None or not check_digest(args.workload, args.seed, digest):
        result["correct"] = False
    metrics = attach_units(result["metrics"], args.trace == "1",
                           result["correct"])
    if metrics is None:
        return 1
    result["metrics"] = metrics
    for line in lines[:-1]:
        print(line)
    for name, m in metrics.items():
        print("%-30s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
