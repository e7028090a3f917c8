#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch|compile-cold|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus the benchmark program) under
.bench_build/, runs the workload in a private directory there with every
inherited SLIN_* variable removed, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the workload runs twice, untraced then traced; the metrics
are the per-layer metrics from the traced run plus the tracing overhead
(traced minus untraced, as a share of untraced). A per-layer metric whose
layer the workload does not exercise reads 0. Each run's full results,
and the traced run's spans, are kept in .bench_build/results/.
Human-readable progress goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("batch", "compile-cold", "serve")
# Wall time allowed to the workload processes of one invocation, after
# the build.
RUN_TIMEOUT_S = 170
# End-to-end metrics whose tracing overhead the traced run reports.
OVERHEAD_OF = ("setup_s", "ns_per_output", "compile_s", "warm_load_ms",
               "latency_ms.p50", "capacity_rps")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def run_once(binary, run_dir, args, traced, keep_path, deadline):
    """One workload process in a fresh private directory; returns its
    results object. Its full results (every metric the workload measured,
    the host fingerprint and the first failures) are kept at keep_path,
    and with traced its spans beside them."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLIN_")}
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", ".", "--out",
           "results.json"]
    if traced:
        cmd += ["--trace", keep_path[:-len(".json")] + ".trace.json"]
    try:
        proc = subprocess.run(cmd, cwd=run_dir, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload ran past %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("workload exited with %d" % proc.returncode)
    shutil.copyfile(os.path.join(run_dir, "results.json"), keep_path)
    with open(keep_path) as f:
        results = json.load(f)
    shutil.rmtree(run_dir, ignore_errors=True)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "apps", "Benchmarks.h")):
        fail("run from the root of a checkout: no src/ here")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    tag = "%s-seed%d" % (args.workload, args.seed)
    run_dir = os.path.join(root, ".bench_build", "runs",
                           "%s-pid%d" % (tag, os.getpid()))
    keep_dir = os.path.join(root, ".bench_build", "results")
    os.makedirs(keep_dir, exist_ok=True)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs = [run_once(binary, run_dir, args, False,
                     os.path.join(keep_dir, tag + ".json"), deadline)]
    if args.trace:
        runs.append(run_once(binary, run_dir, args, True,
                             os.path.join(keep_dir, tag + "-traced.json"),
                             deadline))
    final = runs[-1]
    for r in runs:
        for f in r["failures"]:
            log("FAILED " + f)
    log("host: " + json.dumps(final["host"]))

    metrics = {}
    if args.trace:
        untraced, traced = runs[0]["metrics"], runs[1]["metrics"]
        for name in OVERHEAD_OF:
            if name in untraced and name in traced and untraced[name]["value"]:
                traced["trace.overhead." + name] = {
                    "value": traced[name]["value"] / untraced[name]["value"] - 1,
                    "unit": "ratio"}
        for m in spec["per_layer"]:
            got = traced.get(m["name"])
            metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                                  "unit": m["unit"]}
    else:
        got = final["metrics"]
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in got]
        if missing:
            fail("workload did not measure " + ", ".join(missing))
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": got[m["name"]]["value"],
                                  "unit": m["unit"]}

    for name, m in metrics.items():
        log("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
