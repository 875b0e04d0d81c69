"""Measurement loop of one benchmark run: set-up, timed rounds, checks, result.

A run repeats the workload's round, one caller in one process (a closed
loop), until the next round would end after ``--seconds``, and reports the
median round (``solve_s``).  After each round it times a few batches of the
workload's set-up and reports the median batch (``setup_s``).  Both are
scaled to the reference host by calibration kernel runs next to them
(``calibration.py``).  The raw wall times
are printed on ``#`` lines.  Every round's outputs are checked against the
committed reference.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from dataclasses import dataclass, field

import numpy as np
import scipy

import calibration
import spans
import workloads

#: Set-up batches timed after each round.  A batch repeats set-up until it
#: has taken ``SETUP_BATCH_SECONDS``, and one calibration kernel run follows
#: it.  The host's speed changes within a second, so a batch is scaled by the
#: kernel run next to it; its speed relative to the kernel drifts over tens
#: of seconds, so the batches are spread over the whole run.
SETUP_BATCHES_PER_ROUND = 3
SETUP_BATCH_SECONDS = 0.02


def blas_threads() -> int:
    """Largest thread count among the OpenBLAS libraries loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts, default=0)


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "blas_threads": blas_threads(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }


class Run:
    """Rounds of one workload with their checks."""

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.csv_12sig_match: int | None = None  # lowest over the rounds

    def round(self, recorder=None) -> tuple[float, float]:
        """One checked round; returns its wall and CPU seconds."""
        c0, t0 = time.process_time(), time.perf_counter()
        if recorder is None:
            outputs = self.workload.run(self.inputs)
        else:
            with spans.Instrumentation(recorder):
                outputs = self.workload.run(self.inputs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        records = self.workload.summarize(self.inputs, outputs)
        bad = workloads.check(records, self.reference)
        self.attempted += len(self.reference["ops"])
        self.failed += len(bad)
        self.messages.extend(bad)
        match = workloads.csv_12sig_match(records, self.reference)
        if self.csv_12sig_match is None or match < self.csv_12sig_match:
            self.csv_12sig_match = match
        return wall, cpu


@dataclass
class Rounds:
    """Times of one run.  ``untraced``, ``traced`` and ``setup`` are scaled to
    the reference host; the others are raw seconds.  A set-up batch's time is
    its mean per repetition."""

    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    raw_setup: list = field(default_factory=list)
    build: list = field(default_factory=list)
    kernel: list = field(default_factory=list)
    recorder: spans.SpanRecorder | None = None


def setup_batch(set_up, out: Rounds, cal: calibration.Calibration) -> None:
    """Time one set-up batch and scale it by the kernel run after it."""
    batch = []
    while sum(batch) < SETUP_BATCH_SECONDS:
        t0 = time.perf_counter()
        _, build = set_up()
        batch.append(time.perf_counter() - t0)
        out.build.append(build)
    out.raw_setup.append(statistics.mean(batch))
    out.setup.append(out.raw_setup[-1] * calibration.REFERENCE_S / cal.seconds(runs=1))


def measure(run: Run, set_up, seconds: float, trace: bool,
            cal: calibration.Calibration) -> Rounds:
    """Rounds until the next would overrun ``seconds``; traced ones alternate.

    A calibration reading precedes the first round and one follows each
    round; a round is scaled by the mean of the two readings around it.
    Set-up batches (``set_up()`` repeated) follow each reading.
    """
    out = Rounds(recorder=spans.SpanRecorder() if trace else None)
    out.kernel.append(cal.seconds())
    lap = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(out.traced) < len(out.untraced)
        wall, cpu = run.round(out.recorder if traced else None)
        out.kernel.append(cal.seconds())
        scaled = wall * calibration.REFERENCE_S / statistics.mean(out.kernel[-2:])
        if traced:
            out.traced.append(scaled)
        else:
            out.untraced.append(scaled)
            out.wall.append(wall)
            out.cpu.append(cpu)
        for _ in range(SETUP_BATCHES_PER_ROUND):
            setup_batch(set_up, out, cal)
        lap.append(time.perf_counter() - t0)
        done = out.untraced and (out.traced or not trace)
        if done and time.perf_counter() - start + statistics.median(lap) > seconds:
            return out


def per_layer(run, rounds: Rounds):
    metrics = spans.layer_metrics(rounds.recorder, len(rounds.traced))
    metrics["graphs.build_s"] = (statistics.median(rounds.build), "s")
    metrics["cli.csv_12sig_match"] = (run.csv_12sig_match, "count")
    metrics["cpu_s"] = (statistics.median(rounds.cpu), "s")
    metrics["calibration_s"] = (statistics.median(rounds.kernel), "s")
    metrics["blas_threads"] = (blas_threads(), "count")
    metrics["trace_overhead_frac"] = (
        statistics.median(rounds.traced) / statistics.median(rounds.untraced) - 1.0,
        "ratio")
    return metrics


def print_layer_table(metrics, stream) -> None:
    """Human-readable per-layer table, one block per package module."""
    print("per-layer metrics (per traced round):", file=stream)
    for layer in spans.LAYERS + ("process",):
        rows = [(k, v) for k, v in sorted(metrics.items())
                if k.split(".")[0] == layer or (layer == "process" and "." not in k)]
        for name, (value, unit) in rows:
            print(f"  {name:38s} {value:14.6g} {unit}", file=stream)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one gsp benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="instance size; 'tiny' is for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.size)
    reference = workloads.load_reference(args.workload, args.size)
    print("# env " + json.dumps(environment(args), sort_keys=True), flush=True)
    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    cal = calibration.Calibration()
    try:
        cal.kernel()  # warm-up
        set_up = functools.partial(workload.setup, args.seed, workdir)
        inputs, _ = set_up()  # also the warm-up: lazy imports, first-call costs
        run = Run(workload, inputs, reference)
        rounds = measure(run, set_up, args.seconds, bool(args.trace), cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for msg in run.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"# rounds untraced={len(rounds.untraced)} traced={len(rounds.traced)} "
          f"setups={len(rounds.build)} ops_failed_frac={run.failed / run.attempted:.6g}",
          flush=True)
    print("# raw wall seconds: setup median "
          f"{statistics.median(rounds.raw_setup):.6g}, untraced rounds "
          + " ".join(f"{t:.3f}" for t in rounds.wall), flush=True)
    print("# calibration kernel seconds " + " ".join(f"{t:.4f}" for t in rounds.kernel),
          flush=True)
    if args.trace:
        metrics = per_layer(run, rounds)
        print_layer_table(metrics, sys.stderr)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(rounds.setup), "s"),
            "solve_s": (statistics.median(rounds.untraced), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0
