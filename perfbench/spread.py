#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each end-to-end metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs N] [--first-seed S] [--workload NAME ...]

Runs `run.py` N times per workload (seeds S, S+1, ...; default 10 runs
from seed 1, every workload in BENCHMARK.json) with BENCHMARK.json's
run_seconds, untraced. For each metric it prints the median and the
distance between the first and third quartiles as a share of the median,
beside the metric's bound and a third of it. Exits non-zero if a run
fails, reports an incorrect output, or changes its digest between seeds
where the inputs do not depend on the seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    digest = next((l.split()[-1] for l in lines if l.startswith("perfbench digest")), "")
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        digests = set()
        for k in range(args.runs):
            result, digest = run_once(w, args.first_seed + k, bench["run_seconds"])
            digests.add(digest)
            print(f"  seed {args.first_seed + k}: digest {digest}, "
                  f"ops_per_s {result['metrics']['ops_per_s']['value']:.6g}", flush=True)
            if not result["correct"] or result["failed"]:
                print(f"{w}: seed {args.first_seed + k} failed its checks")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{w}: {args.runs} runs, {len(digests)} distinct digest(s)")
        if w in ("paper-suite", "qc96") and len(digests) != 1:
            print(f"{w}: seed-independent inputs gave different digests")
            ok = False
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:18s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.3f} (third {bounds[name] / 3:.4f}){flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
