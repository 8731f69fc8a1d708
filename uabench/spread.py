#!/usr/bin/env python3
"""Run the benchmark repeatedly and print each metric's spread against its bound.

Usage (from the repository root):

    python3 uabench/spread.py [--runs 10] [--seed 1] [--same-seed]
                              [--workload NAME ...] [--trace 0|1] [--seconds S]

Reads the command, run length, workloads and bounds from BENCHMARK.json.
For every workload it makes `--runs` runs with seeds `--seed`, `--seed`+1,
... (or all with `--seed` under `--same-seed`) and prints, per metric, the
median, the first and third quartiles, the spread (Q3 - Q1) / median and
the metric's bound. A spread above the bound is marked FAIL, one above a
third of the bound is marked wide. It also checks that the share of failed
operations is the same in every run and, with `--same-seed`, that the input
digest and the three answer-quality counts repeat exactly. Exits non-zero
when a check fails. Writes nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l for l in lines if l.startswith("# digest")), "")
    counts = next((l for l in lines if l.startswith("# counts")), "")
    return result, digest, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--seconds", type=float)
    opts = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer"] if opts.trace else bench["end_to_end"]
    ok = True
    for workload in workloads:
        runs = []
        for i in range(opts.runs):
            seed = opts.seed if opts.same_seed else opts.seed + i
            result, digest, counts = run_once(bench["command"], workload, seed, seconds, opts.trace)
            runs.append((seed, result, digest, counts))
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"{workload}: {opts.runs} runs, {seconds} s each")
        if not all(r["correct"] for _, r, _, _ in runs):
            print("  FAIL: a run reported incorrect answers")
            ok = False
        shares = {Fraction(r["failed"], r["attempted"]) for _, r, _, _ in runs}
        print(f"  failed share: {', '.join(str(s) for s in sorted(shares))}")
        if len(shares) != 1:
            print("  FAIL: the failed share differs between runs")
            ok = False
        if opts.same_seed:
            for label, values in (("digest", {d for _, _, d, _ in runs}),
                                  ("counts", {c for _, _, _, c in runs})):
                if len(values) != 1:
                    print(f"  FAIL: {label} differs between runs of one seed: {values}")
                    ok = False
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for spec in specs:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for _, r, _, _ in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec.get("bound")
            mark = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    mark, ok = "FAIL", False
                elif spread > bound / 3:
                    mark = "wide"
            print(f"  {name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6} {mark}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
