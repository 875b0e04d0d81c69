"""Command-line interface: gen, gammamax, solve, sweep and polish flows.

Reports are emitted as a single self-describing JSON document; tradeoff
curves additionally as CSV.  Exit codes: 0 success, 1 infeasibility,
2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import scipy.linalg

from . import REPORT_FORMAT, __version__
from .errors import (
    GspError,
    InfeasiblePointError,
    InfeasibleSupportError,
    InvalidInputError,
    UnsupportedError,
)
from .graphs import (
    PRNG_ID,
    default_problem,
    generate,
    read_edge_list,
    write_edge_list,
)
from .objective import Objective
from .pipeline import (_OPTIONS, ZERO_TOL, TradeoffPoint, _solve, gamma_max,
                       polish, solve_centralized, sweep)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def parse_gamma_spec(spec: str, problem) -> list[float]:
    """Resolve a gamma specification to an ascending list of absolute values.

    Accepted forms: ``<float>``, ``<float>gmax`` and
    ``log:<lo>:<hi>:<count>`` where ``lo``/``hi`` may carry a ``gmax``
    suffix.  Fractions of gamma_max require a connected plant.  Every value
    and bound must be finite and non-negative, so a bad spec fails before
    any solve.
    """
    gmax = None

    def resolve(tok: str) -> float:
        nonlocal gmax
        tok = tok.strip()
        if tok.endswith("gmax"):
            if gmax is None:
                if not problem.plant.connected:
                    raise InvalidInputError(
                        "gmax fractions require a connected plant")
                gmax = gamma_max(problem)
            frac = tok[: -len("gmax")]
            value = (float(frac) if frac else 1.0) * gmax
        else:
            value = float(tok)
        if not 0 <= value < np.inf:  # also rejects NaN
            raise InvalidInputError(
                f"gamma {tok!r} must be finite and non-negative")
        return value

    try:
        if spec.startswith("log:"):
            _, lo, hi, count = spec.split(":")
            lo_v, hi_v, k = resolve(lo), resolve(hi), int(count)
            if lo_v <= 0 or hi_v < lo_v or k < 1:
                raise InvalidInputError(f"bad logarithmic range {spec!r}")
            return [float(g) for g in np.geomspace(lo_v, hi_v, k)]
        return [resolve(spec)]
    except ValueError as exc:
        raise InvalidInputError(f"malformed gamma spec {spec!r}: {exc}") from exc


def _nan_entry(value: float) -> float | None:
    """A float for the reports: None (JSON null, an empty CSV field) for NaN,
    which strict JSON cannot hold."""
    return None if np.isnan(value) else value


def _point_record(p: TradeoffPoint) -> dict:
    """One tradeoff point as the CSV's columns, in order, and the JSON
    report's point keys."""
    return {
        "gamma": p.gamma, "cardinality": p.cardinality,
        "J_sparse": p.J_sparse, "J_polished": p.J_polished,
        "rel_loss": p.rel_performance_loss,
        "rel_card": _nan_entry(p.rel_cardinality),
        "iterations": p.iterations, "polish_gap": _nan_entry(p.polish_gap),
        "wall_time_s": p.wall_time,
    }


def write_tradeoff_csv(points: list[TradeoffPoint], path) -> None:
    """Serialize a tradeoff curve, one row per gamma, 12 significant digits."""
    if not points:
        raise InvalidInputError("cannot write an empty tradeoff curve")
    records = [_point_record(p) for p in sorted(points, key=lambda p: p.gamma)]
    rows = [",".join(records[0])] + [
        ",".join("" if v is None else str(v) if isinstance(v, int) else f"{v:.12g}"
                 for v in r.values())
        for r in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def _load_problem(args):
    plant_edges = read_edge_list(args.plant)
    candidates = read_edge_list(args.candidates) if args.candidates else None
    return default_problem(
        plant_edges, candidates,
        resistive=args.resistive,
        q_scale=args.q_scale, r_scale=args.r_scale,
    )


def _solver_options(args):
    """Solver options built through their constructor, which checks the flags."""
    flags = {k: getattr(args, k) for k in ("max_iters", "tol_gap", "tol_rd")}
    return _OPTIONS[args.method](**{k: v for k, v in flags.items() if v is not None})


def _config_echo(args) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    echo["prng"] = PRNG_ID
    return echo


def _problem_summary(problem) -> dict:
    return {
        "n": problem.n,
        "m": problem.m,
        "plant_edges": problem.plant.edges.m,
        "connected": bool(problem.plant.connected),
        "resistive": bool(problem.resistive),
    }


def _solution_entry(problem, x) -> list:
    out = []
    for l in np.flatnonzero(np.abs(x) > ZERO_TOL):
        i, j = problem.candidates.pairs[l]
        out.append([int(i), int(j), float(x[l])])
    return out


def _write_report(path, payload) -> None:
    payload = dict(payload)
    payload["format"] = REPORT_FORMAT
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen(args) -> int:
    edges = generate(args.kind, args.n, p=args.p, seed=args.seed)
    write_edge_list(edges, args.out)
    return EXIT_OK


def _cmd_gammamax(args) -> int:
    problem = _load_problem(args)
    print(f"{gamma_max(problem):.12g}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    problem = _load_problem(args)
    gammas = parse_gamma_spec(args.gamma, problem)
    if len(gammas) != 1:
        raise InvalidInputError("solve expects a single gamma; use sweep "
                                "for ranges")
    problem = problem.with_gamma(gammas[0])
    opts = _solver_options(args)

    x, report = _solve(problem, args.method, None, opts)
    obj = Objective(problem)
    J = obj.value(x)
    support = np.flatnonzero(np.abs(x) > ZERO_TOL)
    x_pol, J_pol, polish_gap = polish(problem, support)

    objective_values = {"J": J, "J_polished": J_pol,
                        "polish_gap": _nan_entry(polish_gap),
                        "J_c": None, "rel_loss": None}
    if not args.no_baseline:
        x_c, _ = solve_centralized(problem, args.method, opts)
        J_c = obj.value(x_c)
        objective_values["J_c"] = J_c
        objective_values["rel_loss"] = (J_pol - J_c) / J_c

    cert = report.certificate
    payload = {
        "config": _config_echo(args),
        "problem": _problem_summary(problem),
        "gamma": problem.gamma,
        "solution": _solution_entry(problem, x_pol),
        "solution_unpolished": _solution_entry(problem, x),
        "objective": objective_values,
        "certificate": None if cert is None else {
            "gap": cert.gap, "rd_norm": cert.rd_norm, "beta": cert.beta,
        },
        "solve": {
            "status": report.status,
            "iterations": report.iterations,
            "wall_time_s": report.wall_time,
            "final_gap": _nan_entry(report.final_gap),
            "final_rd_norm": _nan_entry(report.final_rd_norm),
        },
    }
    _write_report(args.out, payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    problem = _load_problem(args)
    gammas = parse_gamma_spec(args.gammas, problem)
    opts = _solver_options(args)
    points = sweep(problem, gammas, solver=args.method, opts=opts,
                   use_reweighting=args.reweight)
    if args.csv:
        write_tradeoff_csv(points, args.csv)
    payload = {
        "config": _config_echo(args),
        "problem": _problem_summary(problem),
        "points": [_point_record(p) for p in points],
    }
    _write_report(args.out, payload)
    return EXIT_OK


def _candidate_indices(problem, pairs) -> np.ndarray:
    """Positions of canonical node pairs in the problem's candidate list,
    looked up among the sorted candidate keys ``i n + j``.  The first pair,
    in the given order, that is not a candidate raises."""
    n, m = problem.n, problem.m
    cand = problem.candidates.pairs
    order = np.argsort(cand[:, 0] * n + cand[:, 1])
    # the key n n lies past every candidate's; pairs off the n nodes get it
    keys = np.append(cand[order, 0] * n + cand[order, 1], n * n)
    want = np.where(pairs[:, 1] < n, pairs[:, 0] * n + pairs[:, 1], n * n)
    at = np.searchsorted(keys, want)
    missing = (at == m) | (keys[at] != want)
    if missing.any():
        i, j = pairs[np.argmax(missing)].tolist()
        raise InvalidInputError(f"edge {(i, j)} is not a candidate edge")
    return order[at]


def _cmd_polish(args) -> int:
    problem = _load_problem(args)
    chosen = read_edge_list(args.edges)
    x, J, gap = polish(problem, _candidate_indices(problem, chosen.pairs))
    payload = {
        "config": _config_echo(args),
        "problem": _problem_summary(problem),
        "solution": _solution_entry(problem, x),
        "objective": {"J_polished": J, "polish_gap": _nan_entry(gap)},
    }
    _write_report(args.out, payload)
    return EXIT_OK


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plant", required=True, help="plant edge-list file")
    p.add_argument("--candidates",
                   help="candidate edge-list file (default: complement)")
    p.add_argument("--resistive", action="store_true",
                   help="enforce non-negative edge weights")
    p.add_argument("--q-scale", type=float, default=1.0,
                   help="scale of the deviation-from-average state weight")
    p.add_argument("--r-scale", type=float, default=1.0,
                   help="scale of the identity control weight")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=["proxbb", "proxn"],
                   default="proxn")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tol-gap", type=float, dest="tol_gap")
    p.add_argument("--tol-rd", type=float, dest="tol_rd")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsp",
        description="Design edge additions for consensus networks by "
                    "l1-regularized H2 optimization.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"gsp {__version__} (format {REPORT_FORMAT}, prng {PRNG_ID})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark plant graph")
    p.add_argument("kind", choices=["path", "ring", "erdos_renyi"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, help="edge probability (erdos_renyi)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("gammamax",
                       help="print the penalty level above which no edge "
                            "is added")
    _add_problem_flags(p)
    p.set_defaults(func=_cmd_gammamax)

    p = sub.add_parser("solve", help="solve at one penalty level")
    _add_problem_flags(p)
    _add_solver_flags(p)
    p.add_argument("--gamma", required=True,
                   help="penalty: float, or fraction like 0.8gmax")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the centralized baseline solve")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="trace a sparsity/performance tradeoff "
                                     "curve over a gamma range")
    _add_problem_flags(p)
    _add_solver_flags(p)
    p.add_argument("--gammas", required=True,
                   help="gamma range, e.g. log:1e-3:2.5:200 or "
                        "log:0.01gmax:gmax:50")
    p.add_argument("--reweight", action="store_true",
                   help="use the path-following reweighted penalty")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--csv", help="tradeoff CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("polish", help="re-optimize weights on a fixed "
                                      "controller edge set")
    _add_problem_flags(p)
    p.add_argument("--edges", required=True,
                   help="edge-list file with the controller support")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.set_defaults(func=_cmd_polish)

    return parser


def run(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InfeasiblePointError, InfeasibleSupportError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InvalidInputError, UnsupportedError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (scipy.linalg.LinAlgError, GspError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
