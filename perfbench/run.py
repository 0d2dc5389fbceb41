#!/usr/bin/env python3
"""Entry point of the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (the imars
library from ../src plus the benchmark program and the trace validator) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end set of BENCHMARK.json, with --trace 1 the per_layer set; in the
traced run the exported Chrome trace must also pass `trace_summary --check`.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time

START = time.monotonic()
RUN_BUDGET_S = 175.0  # one run, build excluded
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"[run.py] {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary dir."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", build_dir, *gen,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--parallel",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd[:2]))
    return build_dir


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                         cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build(os.path.join(ROOT, target, "perfbench"))
    built = time.monotonic()

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(build_dir, f"trace-{args.workload}.json")
        cmd += ["--trace", "--trace-out", trace_path]
    env = dict(os.environ, PERFBENCH_COMMIT=git_commit())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    for line in lines[:-1]:
        print(line)
    correct = bool(result["correct"])
    if trace_path is not None:
        check = subprocess.run(
            [os.path.join(build_dir, "trace_summary"), "--check", trace_path],
            capture_output=True, text=True, cwd=ROOT)
        verdict = (check.stdout.strip().splitlines() or ["(no output)"])[-1]
        print(f"# trace_summary --check: {verdict}")
        if check.returncode != 0:
            correct = False

    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"metric {m['name']} missing from the run")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"# build {built - START:.1f} s, run {time.monotonic() - built:.1f} s")
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
