#!/usr/bin/env python3
"""Repeat mode: run workloads N times, each in a fresh process, and summarize.

    python3 benchmarks/repeat.py --runs 10 [--seed0 1] [--seconds S] [workload ...]

Run ``i`` uses seed ``seed0 + i``.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  Use it to set the bounds and to recheck them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload, results, bounds) -> None:
    print(f"== {workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed={sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f" bound {bound:g} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"  {name:36s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} {unit}{verdict}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.seed0 + i, args.seconds))
            print(f"  {workload} seed {args.seed0 + i}: "
                  + json.dumps({k: round(v["value"], 6)
                                for k, v in results[-1]["metrics"].items()}),
                  flush=True)
        summarize(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
