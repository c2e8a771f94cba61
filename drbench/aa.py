#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median, quartiles and spread (interquartile range over median).

Run from the root of the checkout:

    python3 drbench/aa.py --workload paced --seeds 1-10 --seconds 15
    python3 drbench/aa.py --workload paced --seeds 1-10 --seconds 15 --json set1.json
    python3 drbench/aa.py --workload all --seeds 1 --trace 0 --trace 1

Two sets of runs of the same code (an A/A check) are compared with
--compare set1.json set2.json: for each workload and metric it prints both
medians and their relative difference.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = ["bash", "drbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[],
                    help="repeat for several; 'all' runs burst, paced, recover and fleet")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, action="append", help="0, 1 or both (repeat the flag)")
    ap.add_argument("--json", help="also write the raw results here")
    ap.add_argument("--compare", nargs=2, metavar="SET", help="compare two saved sets")
    a = ap.parse_args()

    if a.compare:
        s1, s2 = (json.load(open(p)) for p in a.compare)
        for w in s1:
            for m in s1[w][0]["metrics"]:
                v1 = [r["metrics"][m]["value"] for r in s1[w]]
                v2 = [r["metrics"][m]["value"] for r in s2[w]]
                m1, m2 = statistics.median(v1), statistics.median(v2)
                print(f"{w:8} {m:28} {m1:14.6g} {m2:14.6g} {(m2 - m1) / m1:+8.2%}")
        return

    if "all" in a.workload:
        a.workload = ["burst", "paced", "recover", "fleet"]
    results = {}
    for w in a.workload:
        for t in a.trace or [0]:
            key = w if t == 0 else f"{w}/trace"
            results[key] = [run(w, s, a.seconds, t) for s in seeds(a.seeds)]
            runs = results[key]
            ops = [(r["attempted"], r["failed"]) for r in runs]
            fail = {f / n for n, f in ops}
            print(f"{key}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
                  f"(attempted, failed)={ops}, failed shares={sorted(fail)}")
            report(runs)
    if a.json:
        with open(a.json, "w") as f:
            json.dump(results, f)


def report(runs):
    for m in runs[0]["metrics"]:
        vals = [r["metrics"][m]["value"] for r in runs]
        unit = runs[0]["metrics"][m]["unit"]
        if len(vals) < 2:
            print(f"  {m:30} {vals[0]:14.6g} {unit}")
            continue
        q1, q2, q3, spread = summary(vals)
        print(f"  {m:30} median {q2:14.6g} {unit:6} q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.2%}")


if __name__ == "__main__":
    main()
