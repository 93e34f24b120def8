#!/usr/bin/env python3
"""Steadiness check for the icgkit benchmark.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--trace 0]
        [--save medians.json] [--against medians.json] [workload ...]

Run from the root of a checkout. Runs each workload (default: every
workload in BENCHMARK.json) --runs times, each with its own seed, and
prints per metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and
that spread against the metric's bound, then every run's value. A spread
within a third of its bound is marked "steady", within the bound
"within", above it "WIDE". Also prints the failed shares seen and, per
run, the share of the machine's CPU time the hypervisor stole during it
(the steal column of /proc/stat, where the host has one).
--save writes each metric's median to a file; --against compares this
set's medians with a saved set's, in both directions: this set worse
than the saved one, and the saved one worse than this, each as a share
of the base set's median. Either beyond the bound marks a SHIFT.
Exits 1 if any spread is WIDE, any shift is beyond its bound, or any
run failed to report, reported a failed operation or an incorrect
output, or ran while more than STEAL_LIMIT of the CPU time was stolen:
such a set measures the host, not the program, and is no evidence
either way.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEAL_LIMIT = 0.10


def cpu_times():
    """(steal, total) jiffies over all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    base = {}
    if args.against:
        with open(args.against) as f:
            base = json.load(f)
    saved = {}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bad = False
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        shares, steal = [], []
        for i in range(args.runs):
            seed = args.seed_base + i
            before = cpu_times()
            try:
                r = run_once(spec, w, seed, spec["run_seconds"], args.trace)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
                print("  %s: %s" % (w, e))
                bad = True
                continue
            after = cpu_times()
            if before and after and after[1] > before[1]:
                steal.append((after[0] - before[0]) / (after[1] - before[1]))
            shares.append(r["failed"] / r["attempted"])
            if not r["correct"] or r["failed"]:
                print("  %s seed %d: correct=%s, failed %d of %d" % (
                    w, seed, r["correct"], r["failed"], r["attempted"]))
                bad = True
            for m in metrics:
                values[m["name"]].append(r["metrics"][m["name"]]["value"])
        print("%s: %d runs, failed share %s" % (
            w, len(shares), sorted(set(shares)) if shares else "-"))
        if steal:
            print("  steal share per run: " + " ".join("%.3f" % x for x in steal))
            if max(steal) > STEAL_LIMIT:
                print("  HOST DISTURBED: steal above %.2f in a run" % STEAL_LIMIT)
                bad = True
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            line = "  %-34s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.3f" % (
                m["name"], med, q1, q3, spread)
            if "bound" in m:
                verdict = ("steady" if spread <= m["bound"] / 3
                           else "within" if spread <= m["bound"] else "WIDE")
                line += "  bound %.3f  %s" % (m["bound"], verdict)
                if verdict == "WIDE":
                    bad = True
            print(line)
            print("    runs: " + " ".join("%.6g" % x for x in v))
            saved.setdefault(w, {})[m["name"]] = med
            old = base.get(w, {}).get(m["name"])
            if "bound" in m and old:
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (med - old) / abs(old)      # this set against the saved
                reverse = sign * (old - med) / abs(med)    # the saved set against this
                line = "    shift against saved median %.6g: this %+.3f, reverse %+.3f" % (
                    old, worse, reverse)
                if max(worse, reverse) > m["bound"]:
                    line += "  SHIFT"
                    bad = True
                print(line)
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
