"""Command-line interface: flows, formats and exit codes."""

import json

import numpy as np
import pytest

from gsp import graphs, pipeline
from gsp.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_OK,
    parse_gamma_spec,
    run,
    write_tradeoff_csv,
)
from gsp.errors import InvalidInputError
from gsp.pipeline import TradeoffPoint


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.edges"
    graphs.write_edge_list(graphs.generate("path", 3), path)
    return str(path)


def p3_problem(gamma=0.0):
    plant = graphs.generate("path", 3)
    cand = graphs.EdgeList.from_tuples(3, [(0, 2)])
    return graphs.default_problem(plant, candidates=cand, gamma=gamma,
                                  resistive=True)


def test_version_banner(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "gsp-report-2" in out
    assert "numpy-pcg64" in out


def test_gen_path_nine_lines(tmp_path):
    out = tmp_path / "plant.edges"
    assert run(["gen", "path", "--n", "10", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 9
    back = graphs.read_edge_list(out)
    assert back.n == 10 and back.m == 9


def test_gen_round_trip(tmp_path):
    out = tmp_path / "er.edges"
    assert run(["gen", "erdos_renyi", "--n", "20", "--p", "0.3", "--seed",
                "4", "--out", str(out)]) == EXIT_OK
    assert np.array_equal(
        graphs.read_edge_list(out).pairs,
        graphs.generate("erdos_renyi", 20, p=0.3, seed=4).pairs,
    )


def test_gammamax_prints_two(p3_file, capsys):
    assert run(["gammamax", "--plant", p3_file, "--resistive"]) == EXIT_OK
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0,
                                                                   abs=1e-10)


def test_solve_report(p3_file, tmp_path):
    report = tmp_path / "r.json"
    code = run(["solve", "--plant", p3_file, "--resistive", "--method",
                "proxn", "--gamma", "1.0", "--out", str(report)])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["format"] == "gsp-report-2"
    assert doc["problem"] == {"n": 3, "m": 1, "plant_edges": 2,
                              "connected": True, "resistive": True}
    (i, j, w), = doc["solution_unpolished"]
    assert (i, j) == (0, 2)
    assert w == pytest.approx(1 / np.sqrt(3) - 0.5, abs=1e-4)  # 0.07735
    assert doc["certificate"]["gap"] <= 1e-4
    assert doc["solve"]["status"] == "converged"
    assert doc["config"]["prng"] == "numpy-pcg64"
    assert doc["objective"]["rel_loss"] is not None


def test_solve_gamma_fraction(p3_file, tmp_path):
    report = tmp_path / "r.json"
    code = run(["solve", "--plant", p3_file, "--resistive", "--gamma",
                "0.8gmax", "--no-baseline", "--out", str(report)])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["gamma"] == pytest.approx(1.6)
    assert doc["objective"]["J_c"] is None


def test_parse_gamma_spec_forms():
    prob = p3_problem()
    assert parse_gamma_spec("0", prob) == [0.0]
    assert parse_gamma_spec("0.8gmax", prob) == [pytest.approx(1.6)]
    assert parse_gamma_spec("gmax", prob) == [pytest.approx(2.0)]
    gs = parse_gamma_spec("log:1e-3:2.5:200", prob)
    assert len(gs) == 200
    assert gs[0] == pytest.approx(1e-3)
    assert gs[-1] == pytest.approx(2.5)
    assert np.all(np.diff(gs) > 0)
    gs = parse_gamma_spec("log:0.1gmax:gmax:5", prob)
    assert gs[0] == pytest.approx(0.2)
    assert gs[-1] == pytest.approx(2.0)


def test_parse_gamma_spec_errors():
    prob = p3_problem()
    with pytest.raises(InvalidInputError):
        parse_gamma_spec("abc", prob)
    with pytest.raises(InvalidInputError):
        parse_gamma_spec("log:1:0.5:3", prob)
    disconnected = graphs.default_problem(
        graphs.EdgeList.from_tuples(4, [(0, 1)])
    )
    with pytest.raises(InvalidInputError):
        parse_gamma_spec("0.5gmax", disconnected)


def test_write_tradeoff_csv(tmp_path):
    points = [
        TradeoffPoint(1.0, 2, 1.5, 1.4, 0.1, 0.5, 7, 0.01),
        TradeoffPoint(0.5, 3, 1.2, 1.1, 0.0, 0.75, 5, 0.02),
    ]
    path = tmp_path / "curve.csv"
    write_tradeoff_csv(points, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("gamma,cardinality,J_sparse,J_polished,rel_loss,"
                        "rel_card,iterations,wall_time_s")
    assert len(lines) == 3
    # rows are ordered by gamma
    assert lines[1].startswith("0.5,3,")
    assert lines[2].startswith("1,2,")
    with pytest.raises(InvalidInputError):
        write_tradeoff_csv([], tmp_path / "empty.csv")


def test_csv_twelve_significant_digits(tmp_path):
    pt = TradeoffPoint(1.0 / 3.0, 1, 2.0 / 3.0, 0.1, 0.0, 1.0, 1, 0.0)
    path = tmp_path / "digits.csv"
    write_tradeoff_csv([pt], path)
    row = path.read_text().strip().splitlines()[1].split(",")
    assert row[0] == "0.333333333333"
    assert row[2] == "0.666666666667"


def test_sweep_csv_deterministic(p3_file, tmp_path):
    def one(tag):
        csv = tmp_path / f"{tag}.csv"
        report = tmp_path / f"{tag}.json"
        code = run(["sweep", "--plant", p3_file, "--resistive", "--gammas",
                    "log:0.1:2:4", "--csv", str(csv), "--out", str(report)])
        assert code == EXIT_OK
        rows = csv.read_text().strip().splitlines()
        # drop the wall-time column; timing is the one non-deterministic field
        return ["," .join(r.split(",")[:-1]) for r in rows]

    assert one("a") == one("b")


def test_sweep_row_count(p3_file, tmp_path):
    csv = tmp_path / "c.csv"
    code = run(["sweep", "--plant", p3_file, "--resistive", "--gammas",
                "log:0.5:2:4", "--csv", str(csv), "--out",
                str(tmp_path / "s.json")])
    assert code == EXIT_OK
    assert len(csv.read_text().strip().splitlines()) == 5


def test_polish_flow(p3_file, tmp_path):
    sup = tmp_path / "sup.edges"
    sup.write_text("0 2\n")
    report = tmp_path / "p.json"
    code = run(["polish", "--plant", p3_file, "--resistive", "--edges",
                str(sup), "--out", str(report)])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["objective"]["J_polished"] == pytest.approx(
        2 * np.sqrt(2) - 5.0 / 3.0, abs=1e-6
    )


def test_polish_rejects_non_candidate_edge(p3_file, tmp_path):
    sup = tmp_path / "sup.edges"
    sup.write_text("0 1\n")  # a plant edge, not a candidate
    code = run(["polish", "--plant", p3_file, "--resistive", "--edges",
                str(sup)])
    assert code == EXIT_INVALID


def test_exit_codes(tmp_path, p3_file):
    # missing file -> invalid input
    assert run(["solve", "--plant", str(tmp_path / "no.edges"), "--gamma",
                "1"]) == EXIT_INVALID
    # gmax fraction on a disconnected plant -> invalid input
    disc = tmp_path / "disc.edges"
    disc.write_text("n 4\n0 1\n")
    assert run(["solve", "--plant", str(disc), "--gamma",
                "0.5gmax"]) == EXIT_INVALID
    # empty-support polish on a disconnected plant -> infeasible
    empty = tmp_path / "empty.edges"
    empty.write_text("# no edges\nn 4\n0 1\n")
    sup = tmp_path / "none.edges"
    sup.write_text("# empty support\nn 4\n")
    assert run(["polish", "--plant", str(empty), "--edges",
                str(sup)]) == EXIT_INFEASIBLE


@pytest.mark.parametrize("argv", [
    ["sweep", "--gammas", "0.5", "--jobs", "2"],
    ["solve", "--gamma", "0.5", "--seed", "1"],
])
def test_removed_flags_are_usage_errors(p3_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv[:1] + ["--plant", p3_file, "--resistive"] + argv[1:])
    assert exc.value.code == EXIT_INVALID
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["proxn", "proxbb"])
@pytest.mark.parametrize("flag", [["--tol-gap", "-1"], ["--tol-rd", "0"],
                                  ["--max-iters", "0"]])
def test_bad_solver_flags_are_invalid_input(p3_file, method, flag):
    assert run(["solve", "--plant", p3_file, "--resistive", "--gamma", "0.5",
                "--method", method, "--no-baseline"] + flag) == EXIT_INVALID


def test_solve_rejects_gamma_ranges(p3_file):
    assert run(["solve", "--plant", p3_file, "--resistive", "--gamma",
                "log:0.1:1:3"]) == EXIT_INVALID


def test_solver_option_flags(p3_file, tmp_path):
    report = tmp_path / "t.json"
    code = run(["solve", "--plant", p3_file, "--resistive", "--gamma", "1.0",
                "--method", "projgrad", "--tol-gap", "1e-10", "--tol-rd",
                "1e-6", "--max-iters", "500", "--no-baseline", "--out",
                str(report)])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["solve"]["final_gap"] <= 1e-10
    assert doc["config"]["tol_gap"] == 1e-10
