#!/usr/bin/env python3
"""A/B perf gate: perfbench on two checkouts of one host, gated on the
bounds in BENCHMARK.json.

Usage:
    tools/perf_ab.py PARENT_DIR CHANGE_DIR --out RUNS.json
    tools/perf_ab.py --compare RUNS.json
    tools/perf_ab.py --self-test

The first form runs `python3 perfbench/run.py --workload W --seed S
--seconds <run_seconds>` in each checkout, PAIRS times per workload, in
alternating pairs: both sides of a pair use the same seed, and the side
that runs first alternates from pair to pair. The workloads, run length
and bounds come from the parent's BENCHMARK.json, so a change cannot
loosen the bounds it is gated on. Every run, with the host fingerprint
from the checkout's .bench_build/results/, is written to RUNS.json; the
second form gates a RUNS.json again without running anything.

For each workload and each end-to-end metric the gate pairs the two
sides' runs by seed and takes the median of the per-pair change/parent
ratios: both runs of a pair ran back to back, so load that drifts from
pair to pair cancels out of each ratio. It fails (exit 1) when
  - the median ratio is worse than 1 by more than the metric's bound,
    in its `better` direction;
  - a change run is not `correct` (or did not finish);
  - the change's failed share (failed / attempted) exceeds the parent's.
A metric whose ratios' quartiles lie further apart than its bound is
reported as unresolved: the pairs disagree by more than the gate could
tell apart. Each report line also gives both sides' medians and the
parent's quartiles. The gate refuses to compare (exit 2) when the runs
carry more than one host fingerprint, or when a parent run did not
finish.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Pairs per workload. On a shared 4-core host one run of a workload
# varies by 15-30% from the next, and with five pairs a parent-vs-parent
# comparison already crossed the 25% bound on a tail latency. At
# BENCHMARK.json's 15 s run length the three workloads take about 100 s
# per side and pair, so ten pairs keep the job near 40 minutes including
# both builds.
PAIRS = 10
SIDES = ("parent", "change")


class Refused(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(checkout, workload, seed, seconds):
    """One perfbench invocation; returns its run record."""
    rec = {"workload": workload, "seed": seed}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        rec["error"] = "run.py exited %d: %s" % (proc.returncode,
                                                 proc.stderr[-2000:])
        return rec
    rec["result"] = json.loads(lines[-1])
    kept = os.path.join(checkout, ".bench_build", "results",
                        "%s-seed%d.json" % (workload, seed))
    with open(kept) as f:
        rec["host"] = json.load(f)["host"]
    return rec


def run_pairs(parent, change, out):
    spec = load_spec(parent)
    doc = {"end_to_end": spec["end_to_end"], "runs": []}
    dirs = {"parent": parent, "change": change}
    for w in (wl["name"] for wl in spec["workloads"]):
        for i in range(PAIRS):
            seed = i + 1
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                rec = run_one(dirs[side], w, seed, spec["run_seconds"])
                rec["side"] = side
                doc["runs"].append(rec)
                log("%-12s pair %d %-6s %s" % (
                    w, seed, side, rec.get("error", "done")))
                with open(out, "w") as f:
                    json.dump(doc, f, indent=1)
    return doc


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def ratio(c, p):
    """change/parent for one pair; a zero parent reads as no change only
    when the change is zero too."""
    if p:
        return c / p
    return 1.0 if c == p else float("inf")


def compare(end_to_end, runs):
    """Gates the change's runs against the parent's: returns (ok, report
    lines). Raises Refused when the runs come from more than one host or
    a parent run did not finish."""
    hosts = {json.dumps(r["host"], sort_keys=True) for r in runs if "host" in r}
    if len(hosts) > 1:
        raise Refused("runs come from different hosts:\n  " +
                      "\n  ".join(sorted(hosts)))
    for r in runs:
        if r["side"] == "parent" and "error" in r:
            raise Refused("%s seed %d: parent run did not finish: %s" % (
                r["workload"], r["seed"], r["error"]))
    ok, report = True, []

    def fail(msg):
        nonlocal ok
        ok = False
        report.append("FAIL " + msg)

    for w in dict.fromkeys(r["workload"] for r in runs):
        side = {s: [r for r in runs if r["workload"] == w and r["side"] == s]
                for s in SIDES}
        for r in side["change"]:
            if "error" in r or not r["result"]["correct"]:
                fail("%s seed %d: change run not correct: %s" % (
                    w, r["seed"], r.get("error") or
                    "%d of %d operations failed" % (r["result"]["failed"],
                                                    r["result"]["attempted"])))
        results = {s: [r["result"] for r in side[s] if "result" in r]
                   for s in SIDES}
        share = {s: sum(x["failed"] for x in results[s]) /
                 max(1, sum(x["attempted"] for x in results[s]))
                 for s in SIDES}
        if share["change"] > share["parent"]:
            fail("%s: failed share %.4g exceeds the parent's %.4g" % (
                w, share["change"], share["parent"]))
        for m in end_to_end:
            name = m["name"]
            vals = {s: {r["seed"]: r["result"]["metrics"][name]["value"]
                        for r in side[s] if "result" in r and
                        name in r["result"]["metrics"]} for s in SIDES}
            if not vals["change"]:
                fail("%s %s: no change run measured it" % (w, name))
                continue
            seeds = [k for k in vals["parent"] if k in vals["change"]]
            if not seeds:
                fail("%s %s: no pair measured it on both sides" % (w, name))
                continue
            ratios = [ratio(vals["change"][k], vals["parent"][k])
                      for k in seeds]
            rel = statistics.median(ratios) - 1
            worse = rel if m["better"] == "lower" else -rel
            p, c = (statistics.median(vals[s].values()) for s in SIDES)
            q1, q3 = quartiles(list(vals["parent"].values()))
            r1, r3 = quartiles(ratios)
            line = "%-12s %-16s parent %10.4g [%.4g, %.4g]  change %10.4g" \
                   "  paired %+7.1f%%  bound %3.0f%%" % (
                       w, name, p, q1, q3, c, 100 * rel, 100 * m["bound"])
            if r3 - r1 > m["bound"]:
                line += "  unresolved: ratios spread %.4g-%.4g" % (r1, r3)
            if worse > m["bound"]:
                fail(line)
            else:
                report.append("ok   " + line)
    return ok, report


def gate(doc):
    try:
        ok, report = compare(doc["end_to_end"], doc["runs"])
    except Refused as e:
        log("perf_ab: refusing to compare: %s" % e)
        return 2
    for line in report:
        print(line)
    print("perf_ab: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def self_test():
    """Drives compare() over synthetic run sets with this checkout's
    BENCHMARK.json bounds."""
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    # Plus one higher-is-better metric: BENCHMARK.json has none today.
    e2e = load_spec(root)["end_to_end"] + [
        {"name": "rate", "better": "higher", "bound": 0.25}]
    base = {m["name"]: 100.0 + i for i, m in enumerate(e2e)}
    host = {"nproc": 4, "cpu": "synthetic"}

    # Host load that drifts from pair to pair, x1.0 to x1.5, and is
    # shared by both runs of a pair.
    drift = [1 + 0.5 * (i * 7 % PAIRS) / (PAIRS - 1) for i in range(PAIRS)]

    def runs(change_scale=None, change_failed=0, change_host=host,
             load=None):
        out = []
        for seed in range(1, PAIRS + 1):
            jitter = (1 + 0.01 * (seed % 3)) * (load[seed - 1] if load else 1)
            for s in SIDES:
                vals = {k: v * jitter for k, v in base.items()}
                failed = 0
                if s == "change":
                    for k, f in (change_scale or {}).items():
                        vals[k] *= f
                    failed = change_failed
                out.append({
                    "workload": "batch", "seed": seed, "side": s,
                    "host": change_host if s == "change" else host,
                    "result": {"correct": failed == 0, "attempted": 100,
                               "failed": failed,
                               "metrics": {k: {"value": v}
                                           for k, v in vals.items()}}})
        return out

    # (case, runs, expected verdict, text a FAIL line must contain);
    # a None verdict means the comparison is refused.
    cases = [
        ("identical sides pass", runs(), True, None),
        ("+40% ns_per_output fails", runs({"ns_per_output": 1.40}), False,
         "ns_per_output"),
        ("+2% flops_per_output fails", runs({"flops_per_output": 1.02}),
         False, "flops_per_output"),
        ("lower peak_rss_mb passes", runs({"peak_rss_mb": 0.5}), True, None),
        ("-40% rate (higher is better) fails", runs({"rate": 0.6}), False,
         "rate"),
        ("higher failed count fails", runs(change_failed=1), False,
         "failed share"),
        ("differing hosts are refused",
         runs(change_host=dict(host, nproc=2)), None, None),
        ("drifting load, +0% change passes", runs(load=drift), True, None),
        ("drifting load, +40% ns_per_output fails",
         runs({"ns_per_output": 1.40}, load=drift), False, "ns_per_output"),
    ]
    bad = 0
    for name, rs, want, finding in cases:
        try:
            got, report = compare(e2e, rs)
        except Refused:
            got, report = None, []
        # A passing case must also resolve every metric: the drifting
        # load spreads the parent's own runs by 50%, but not the ratios.
        passed = got == want and (finding is None or any(
            line.startswith("FAIL") and finding in line for line in report))
        if want:
            passed = passed and not any("unresolved" in line
                                        for line in report)
        log("%s %s" % ("ok  " if passed else "FAIL", name))
        bad += not passed
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkouts", nargs="*", metavar="DIR")
    ap.add_argument("--out", help="where the first form writes its runs")
    ap.add_argument("--compare", metavar="RUNS", help="gate a saved RUNS.json")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        with open(args.compare) as f:
            return gate(json.load(f))
    if len(args.checkouts) != 2 or not args.out:
        ap.error("give PARENT_DIR CHANGE_DIR --out RUNS.json")
    parent, change = (os.path.abspath(d) for d in args.checkouts)
    return gate(run_pairs(parent, change, os.path.abspath(args.out)))


if __name__ == "__main__":
    sys.exit(main())
