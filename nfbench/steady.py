#!/usr/bin/env python3
"""Steadiness and determinism check for the benchmark.

    python3 nfbench/steady.py [--seeds 1-10] [--seconds 30] [--trace N]
                              [--repeat SEED] WORKLOAD...

Runs `bash nfbench/run.sh` once per seed per workload (untraced), one
after another, from the repository root. For every end-to-end metric it
prints the median over the seeds and the spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median, next to the metric's bound from BENCHMARK.json.

Determinism: every run prints a fingerprint of exact counts. --repeat
SEED runs that seed a second time and --trace N runs the first N seeds
traced as well; both must reproduce the untraced fingerprint exactly. Every run
must report correct, with no failed op.

The raw results go to .nfbench/steady-<workload>.json. Exit status 1 if
a run failed, a check failed or a fingerprint differed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = ["bash", "nfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), "")
    return {"seed": seed, "trace": trace, "wall": wall, "result": result,
            "fingerprint": fingerprint, "stderr": proc.stderr.strip()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    for w in args.workloads:
        runs = [run(w, s, args.seconds, False) for s in seeds]
        prints = {r["seed"]: r["fingerprint"] for r in runs}
        extra = []
        if args.repeat is not None:
            extra.append(run(w, args.repeat, args.seconds, False))
        extra += [run(w, s, args.seconds, True) for s in seeds[:args.trace]]
        for r in runs + extra:
            res = r["result"]
            if not res["correct"] or res["failed"] != 0:
                ok = False
                print(f"{w} seed {r['seed']} trace={r['trace']}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
        for r in extra:
            if r["fingerprint"] != prints.get(r["seed"]):
                ok = False
                print(f"{w} seed {r['seed']} trace={r['trace']}: fingerprint "
                      f"{r['fingerprint']!r} != {prints.get(r['seed'])!r}")
        print(f"\n{w}: {len(runs)} seeds, run wall {min(r['wall'] for r in runs):.1f}-"
              f"{max(r['wall'] for r in runs):.1f} s")
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else 0.0
            print(f"  {name:12s} median {statistics.median(values):12.5g}  spread {s:6.3f}  "
                  f"bound {bounds[name]:.2f}  min {min(values):.5g}  max {max(values):.5g}")
        traced = [r for r in extra if r["trace"]]
        if traced:
            over = [r["result"]["metrics"]["trace.overhead_pct"]["value"] for r in traced]
            print(f"  trace.overhead_pct median {statistics.median(over):.2f} "
                  f"(min {min(over):.2f}, max {max(over):.2f}); traced run wall "
                  f"{min(r['wall'] for r in traced):.1f}-{max(r['wall'] for r in traced):.1f} s")
        os.makedirs(".nfbench", exist_ok=True)
        with open(f".nfbench/steady-{w}.json", "w") as f:
            json.dump(runs + extra, f, indent=1)
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
