"""The benchmark's seeded workloads: set-up, one timed round, and its check.

Every workload fixes one canonical instance.  The run's ``--seed`` draws a
permutation of the node labels; the plant and the candidate edges are
relabelled by it, and the candidate list keeps the canonical order, so every
seed poses the same design problem with other inputs, and the same amount of
work.  Edge weights, objective values and supports do not depend on the
labels, so one committed reference per workload (made from the identity
labelling) checks the outputs of every seed.

A workload object has three methods:

- ``setup(seed, workdir)`` builds the inputs and returns them with the time
  its graph-building part took;
- ``run(inputs)`` is one timed round: the solves whose time is ``solve_s``;
- ``summarize(inputs, outputs)`` turns a round's outputs into label-free
  records, one per operation, that are compared with the reference.

Functions of ``gsp`` are looked up on their modules at call time, so the span
wrappers of a traced round see every call.
"""

from __future__ import annotations

import csv
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gsp.cli
import gsp.duality
import gsp.errors
import gsp.graphs
import gsp.objective
import gsp.pipeline
import gsp.proxgrad
import gsp.proxnewton

#: Relative tolerance on objective values against the reference.
REL_TOL = 1e-6

#: Support threshold, the package's own.
ZERO_TOL = gsp.pipeline.ZERO_TOL

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def permutation(n: int, seed: int | None) -> np.ndarray:
    """Node relabelling for ``seed``; ``None`` is the identity (the reference)."""
    if seed is None:
        return np.arange(n)
    return np.random.Generator(np.random.PCG64(seed)).permutation(n)


def relabel(edges, perm):
    """Edge list with node ``i`` renamed ``perm[i]``, in the original edge order."""
    return gsp.graphs.EdgeList.from_tuples(
        edges.n,
        [(int(perm[i]), int(perm[j]), float(w))
         for (i, j), w in zip(edges.pairs, edges.weights)],
    )


def failure(op: str, exc: BaseException) -> dict:
    return {"op": op, "error": "".join(traceback.format_exception_only(exc)).strip()}


def support_of(x) -> list[int]:
    return [int(l) for l in np.flatnonzero(np.abs(x) > ZERO_TOL)]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check(records: list[dict], reference: dict) -> list[str]:
    """One message per failed operation; an empty list means all passed.

    A record fails when its operation raised or reported a failure, when its
    objective misses the reference by more than ``REL_TOL`` relative, or when
    its support differs from the reference support.
    """
    ref_ops = reference["ops"]
    if [r["op"] for r in records] != [r["op"] for r in ref_ops]:
        return [f"{r['op']}: the round's operations do not match the reference"
                for r in ref_ops]
    bad = []
    for rec, ref in zip(records, ref_ops):
        if "error" in rec:
            bad.append(f"{rec['op']}: {rec['error']}")
        elif rec.get("problems"):
            bad.append(f"{rec['op']}: {'; '.join(rec['problems'])}")
        elif any(not close(rec[k], ref[k]) for k in ref["objectives"]):
            diffs = {k: (rec[k], ref[k]) for k in ref["objectives"]}
            bad.append(f"{rec['op']}: objective off the reference {diffs}")
        elif rec["support"] != ref["support"]:
            bad.append(f"{rec['op']}: support differs from the reference")
    return bad


def load_reference(name: str, size: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.{size}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- scale_er120 -------------------------------------------------------------


@dataclass
class ScaleInputs:
    resistive: gsp.graphs.Problem
    signed: gsp.graphs.Problem
    gmax: float


class ScaleEr:
    """Large candidate set, small active sets: five solves on one ER plant."""

    name = "scale_er120"
    sizes = {
        "full": {"n": 120, "plant_seed": 3},
        "tiny": {"n": 30, "plant_seed": 1},
    }
    #: (operation, solver, resistive?, fraction of gamma_max, start at zero?)
    OPS = (
        ("newton_res_0.8", "solve_newton", True, 0.8, False),
        ("projected_res_0.8", "solve_projected", True, 0.8, False),
        ("newton_res_0.3", "solve_newton", True, 0.3, False),
        ("projected_res_0.3", "solve_projected", True, 0.3, False),
        ("ista_signed_0.3", "solve_ista", False, 0.3, True),
    )

    def __init__(self, size: str = "full"):
        self.params = self.sizes[size]

    def setup(self, seed, workdir):
        n = self.params["n"]
        t0 = time.perf_counter()
        base = gsp.graphs.generate("erdos_renyi", n, p=1.05 * np.log(n) / n,
                                   seed=self.params["plant_seed"])
        cand = gsp.graphs.complement_candidates(base)
        perm = permutation(n, seed)
        plant, cand = relabel(base, perm), relabel(cand, perm)
        resistive = gsp.graphs.default_problem(plant, cand, resistive=True)
        signed = gsp.graphs.default_problem(plant, cand)
        build_s = time.perf_counter() - t0
        gmax = gsp.pipeline.gamma_max(resistive)
        return ScaleInputs(resistive, signed, gmax), build_s

    def run(self, inputs: ScaleInputs):
        out = []
        for op, solver, resistive, frac, from_zero in self.OPS:
            base = inputs.resistive if resistive else inputs.signed
            try:
                prob = base.with_gamma(frac * inputs.gmax)
                x0 = np.zeros(prob.m) if from_zero else None
                module = gsp.proxnewton if solver == "solve_newton" else gsp.proxgrad
                x, report = getattr(module, solver)(prob, x0)
            except Exception as exc:  # one failed solve must not stop the round
                out.append((op, exc))
                continue
            out.append((op, (prob, x, report)))
        return out

    def summarize(self, inputs, outputs):
        records = []
        for op, result in outputs:
            if isinstance(result, BaseException):
                records.append(failure(op, result))
                continue
            prob, x, report = result
            problems = []
            if report.status != "converged":
                problems.append(f"status {report.status}")
            cert = report.certificate
            opts = (gsp.proxnewton.NewtonOptions() if op.startswith("newton")
                    else gsp.proxgrad.ProxGradOptions())
            if cert is not None and (cert.gap > opts.tol_gap or cert.rd_norm > opts.tol_rd):
                problems.append(f"certificate gap {cert.gap:.3e}, rd {cert.rd_norm:.3e}")
            F = gsp.objective.Objective(prob).value(x) + prob.gamma * float(np.abs(x).sum())
            records.append({"op": op, "F": F, "support": support_of(x),
                            "objectives": ["F"], "problems": problems})
        return records


def certificate_problem(prob, x, weights, opts) -> str | None:
    """Re-certify ``x`` as a solver would; a message if the certificate
    misses ``tol_gap``/``tol_rd``, ``None`` if it holds or none exists."""
    obj = gsp.objective.Objective(prob)
    try:
        cert = gsp.duality.certify(prob, obj, obj.state(x), weights)
    except (gsp.errors.CertificateUnavailableError, gsp.errors.CertificateInvalidError):
        return None
    if cert.gap > opts.tol_gap or cert.rd_norm > opts.tol_rd:
        return f"certificate gap {cert.gap:.3e}, rd {cert.rd_norm:.3e}"
    return None


# -- reweight_geo -----------------------------------------------------------


@dataclass
class ReweightInputs:
    problem: gsp.graphs.Problem
    gammas: np.ndarray


class ReweightGeo:
    """Reweighted-l1 path with proximal Newton on a three-component plant.

    ``reweighted_path`` returns no solve reports, so ``summarize`` rebuilds
    each point's penalty weights from the previous point's design and
    re-certifies the point.  The first point's weights come from the
    centralized solve, which the path does not return; that point, and every
    point where the blended dual point fails its sign checks (no certificate
    exists), is checked by its objective and support only.
    """

    name = "reweight_geo"
    sizes = {
        "full": {"n": 22, "radius": 2.5, "plant_seed": 3, "points": 12},
        "tiny": {"n": 10, "radius": 2.5, "plant_seed": 6, "points": 8},
    }

    def __init__(self, size: str = "full"):
        self.params = self.sizes[size]

    def setup(self, seed, workdir):
        p = self.params
        t0 = time.perf_counter()
        base = gsp.graphs.random_geometric(p["n"], p["radius"], 10.0, seed=p["plant_seed"])
        cand = gsp.graphs.complement_candidates(base)
        perm = permutation(p["n"], seed)
        problem = gsp.graphs.default_problem(relabel(base, perm), relabel(cand, perm))
        build_s = time.perf_counter() - t0
        return ReweightInputs(problem, np.geomspace(1e-3, 2.5, p["points"])), build_s

    def run(self, inputs: ReweightInputs):
        try:
            return gsp.pipeline.reweighted_path(inputs.problem, inputs.gammas)
        except Exception as exc:  # the whole path fails as one
            return exc

    def summarize(self, inputs: ReweightInputs, outputs):
        ops = [f"gamma_{k:03d}" for k in range(len(inputs.gammas))]
        if isinstance(outputs, BaseException):
            return [failure(op, outputs) for op in ops]
        prob = inputs.problem
        plant = prob.plant.edges.pairs
        obj = gsp.objective.Objective(prob)
        opts = gsp.proxnewton.NewtonOptions()
        records = []
        x_prev = None
        for op, (g, x) in zip(ops, outputs):
            support = support_of(x)
            joined = gsp.graphs.EdgeList(
                prob.n, np.vstack([plant, prob.candidates.pairs[support]]),
                np.ones(len(plant) + len(support)))
            problems = []
            if gsp.graphs.component_count(joined) != 1:
                problems.append("closed loop is not connected")
            if x_prev is not None:
                weights = gsp.pipeline.reweight_update(x_prev)
                cert = certificate_problem(prob.with_gamma(g), x, weights, opts)
                if cert is not None:
                    problems.append(cert)
            x_prev = x
            F = obj.value(x) + g * float(np.abs(x).sum())
            records.append({"op": op, "F": F, "support": support,
                            "objectives": ["F"], "problems": problems})
        sparsest = min(records, key=lambda r: len(r["support"]))
        if len(sparsest["support"]) < 2:
            sparsest["problems"].append("sparsest point has fewer than 2 edges")
        return records


# -- sweep_cli ----------------------------------------------------------------


@dataclass
class SweepInputs:
    argv: list
    csv_path: Path
    json_path: Path


class SweepCli:
    """Resistive proxBB tradeoff sweep with polishing, through ``gsp.cli.run``.

    The sweep's report gives neither a solve status nor a certificate, nor the
    edges of each support, so a point is checked by the CLI's exit code, its
    objectives (sparse and polished) and its cardinality only.
    """

    name = "sweep_cli"
    sizes = {
        "full": {"n": 60, "p": 0.1, "plant_seed": 3, "gammas": "log:0.15gmax:gmax:12"},
        "tiny": {"n": 20, "p": 0.2, "plant_seed": 2, "gammas": "log:0.15gmax:gmax:4"},
    }

    def __init__(self, size: str = "full"):
        self.params = self.sizes[size]

    def setup(self, seed, workdir):
        p = self.params
        workdir = Path(workdir)
        t0 = time.perf_counter()
        base = gsp.graphs.generate("erdos_renyi", p["n"], p=p["p"], seed=p["plant_seed"])
        cand = gsp.graphs.complement_candidates(base)
        perm = permutation(p["n"], seed)
        plant, cand = relabel(base, perm), relabel(cand, perm)
        build_s = time.perf_counter() - t0
        gsp.graphs.write_edge_list(plant, workdir / "plant.edges")
        gsp.graphs.write_edge_list(cand, workdir / "candidates.edges")
        argv = ["sweep", "--plant", str(workdir / "plant.edges"),
                "--candidates", str(workdir / "candidates.edges"),
                "--resistive", "--method", "proxbb", "--gammas", p["gammas"],
                "--csv", str(workdir / "tradeoff.csv"),
                "--out", str(workdir / "report.json")]
        return SweepInputs(argv, workdir / "tradeoff.csv", workdir / "report.json"), build_s

    def run(self, inputs: SweepInputs):
        for path in (inputs.csv_path, inputs.json_path):
            path.unlink(missing_ok=True)
        try:
            return gsp.cli.run(inputs.argv)
        except Exception as exc:  # a crash of the CLI fails every point
            return exc

    def summarize(self, inputs: SweepInputs, outputs):
        count = int(self.params["gammas"].rsplit(":", 1)[1])
        ops = [f"gamma_{k:02d}" for k in range(count)]
        if isinstance(outputs, BaseException):
            return [failure(op, outputs) for op in ops]
        if outputs != 0:
            return [{"op": op, "error": f"exit code {outputs}"} for op in ops]
        with open(inputs.csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(inputs.json_path, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        records = []
        for op, row, point in zip(ops, rows, points):
            problems = []
            if point["cardinality"] != int(row[1]):
                problems.append("report and CSV disagree")
            records.append({
                "op": op, "gamma": float(row[0]), "J_sparse": float(row[2]),
                "J_polished": float(row[3]), "support": int(row[1]), "csv": row[:6],
                "objectives": ["gamma", "J_sparse", "J_polished"],
                "problems": problems,
            })
        if len(records) != count:
            return records + [{"op": op, "error": "missing point"}
                              for op in ops[len(records):]]
        return records


def csv_12sig_match(records: list[dict], reference: dict) -> int:
    """CSV rows equal to the reference in columns 1-6 at 12 significant digits
    (0 for workloads that write no CSV)."""
    return sum(1 for rec, ref in zip(records, reference["ops"])
               if "csv" in rec and rec["csv"] == ref.get("csv"))


WORKLOADS = {w.name: w for w in (ScaleEr, ReweightGeo, SweepCli)}
