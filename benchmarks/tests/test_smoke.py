"""Tiny-size runs of every workload through the benchmark's command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_complete(name, trace):
    work = ROOT / ".bench_work"
    before = set(work.iterdir()) if work.exists() else set()
    proc = run_bench(ROOT, "--workload", name, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert (set(work.iterdir()) if work.exists() else set()) <= before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_rejects_wrong_outputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]("tiny")
    reference = workloads.load_reference(name, "tiny")
    inputs, _ = workload.setup(11, tmp_path)
    records = workload.summarize(inputs, workload.run(inputs))
    assert workloads.check(records, reference) == []

    key = reference["ops"][0]["objectives"][-1]
    records[0][key] *= 1 + 1e-5
    support = reference["ops"][-1]["support"]
    records[-1]["support"] = support + 1 if isinstance(support, int) else support + [10**6]
    assert len(workloads.check(records, reference)) == 2
    failed = [workloads.failure(r["op"], ValueError("boom")) for r in records]
    assert len(workloads.check(failed, reference)) == len(reference["ops"])


def test_reweight_points_are_recertified(tmp_path):
    workload = workloads.ReweightGeo("tiny")
    inputs, _ = workload.setup(3, tmp_path)
    outputs = workload.run(inputs)
    assert all(not r["problems"] for r in workload.summarize(inputs, outputs))
    g, x = outputs[-1]
    records = workload.summarize(inputs, outputs[:-1] + [(g, 1.5 * x)])
    assert any(p.startswith("certificate") for p in records[-1]["problems"])


def test_seeds_relabel_the_inputs(tmp_path):
    workload = workloads.ScaleEr("tiny")
    a, _ = workload.setup(1, tmp_path)
    b, _ = workload.setup(1, tmp_path)
    c, _ = workload.setup(2, tmp_path)
    assert (a.resistive.candidates.pairs == b.resistive.candidates.pairs).all()
    assert not (a.resistive.candidates.pairs == c.resistive.candidates.pairs).all()
    assert a.gmax == pytest.approx(c.gmax, rel=1e-12)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sweep_cli", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
