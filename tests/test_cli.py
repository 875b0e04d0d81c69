"""Command-line interface: flows, formats and exit codes."""

import json

import numpy as np
import pytest

from gsp import graphs, pipeline
from gsp.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_OK,
    _point_record,
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
    assert "gsp-report-5" in out
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
    assert doc["format"] == "gsp-report-5"
    assert doc["problem"] == {"n": 3, "m": 1, "plant_edges": 2,
                              "connected": True, "resistive": True}
    (i, j, w), = doc["solution_unpolished"]
    assert (i, j) == (0, 2)
    assert w == pytest.approx(1 / np.sqrt(3) - 0.5, abs=1e-4)  # 0.07735
    assert doc["certificate"]["gap"] <= 1e-4
    assert doc["solve"]["status"] == "converged"
    assert doc["config"]["prng"] == "numpy-pcg64"
    assert doc["objective"]["rel_loss"] is not None
    assert doc["objective"]["polish_gap"] <= pipeline.POLISH_TOL_GAP


def reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(path):
    """The JSON document at ``path``, read with NaN and infinities rejected."""
    return json.loads(path.read_text(), parse_constant=reject)


def test_solve_report_is_strict_json_without_a_polish_certificate(tmp_path):
    # a signed polish stops on a flat objective, without a certificate: its
    # gap is written as null, not as the non-standard token NaN
    plant = tmp_path / "er.edges"
    report = tmp_path / "r.json"
    assert run(["gen", "erdos_renyi", "--n", "10", "--p", "0.3", "--seed",
                "1", "--out", str(plant)]) == EXIT_OK
    assert run(["solve", "--plant", str(plant), "--gamma", "0.5gmax",
                "--no-baseline", "--out", str(report)]) == EXIT_OK
    doc = strict_json(report)
    assert doc["problem"]["resistive"] is False
    assert doc["objective"]["polish_gap"] is None


def test_solve_report_is_strict_json_without_any_certificate(tmp_path):
    # on a disconnected plant the solve ends with no certificate at all:
    # its final gap and dual residual are null, not NaN
    plant = tmp_path / "two.edges"
    report = tmp_path / "r.json"
    plant.write_text("0 1\n2 3\n")
    assert run(["solve", "--plant", str(plant), "--gamma", "0",
                "--out", str(report)]) == EXIT_OK
    doc = strict_json(report)
    assert doc["certificate"] is None
    assert doc["solve"]["final_gap"] is None
    assert doc["solve"]["final_rd_norm"] is None


def test_sweep_reports_are_strict_without_candidate_edges(tmp_path):
    # a complete plant has no candidate edges, so its baseline has none and
    # the relative cardinality is undefined: JSON null and an empty CSV
    # field, not NaN and "nan"
    plant, csv, report = (tmp_path / name for name in ("k3.edges", "k3.csv",
                                                       "k3.json"))
    plant.write_text("0 1\n1 2\n0 2\n")
    assert run(["sweep", "--plant", str(plant), "--gammas", "log:0.1:1:2",
                "--csv", str(csv), "--out", str(report)]) == EXIT_OK
    points = strict_json(report)["points"]
    assert len(points) == 2
    assert all(p["rel_card"] is None for p in points)
    header, *rows = [r.split(",") for r in csv.read_text().splitlines()]
    assert [r[header.index("rel_card")] for r in rows] == ["", ""]


def test_solve_polishes_from_the_default_start(p3_file, tmp_path, monkeypatch):
    # `gsp solve` polishes from Newton's default start, as `gsp polish` does,
    # so the two report the same J_polished for the same support; like every
    # polish it certifies to POLISH_TOL_GAP
    calls = []
    real_newton = pipeline.solve_newton

    def recording_newton(prob, x0=None, opts=None, *args, **kwargs):
        calls.append((x0, opts))
        return real_newton(prob, x0, opts, *args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_newton", recording_newton)
    assert run(["solve", "--plant", p3_file, "--resistive", "--method",
                "proxbb", "--gamma", "1.0", "--out",
                str(tmp_path / "r.json")]) == EXIT_OK
    (x0, opts), = calls
    assert x0 is None
    assert opts.tol_gap == pipeline.POLISH_TOL_GAP


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
        TradeoffPoint(1.0, 2, 1.5, 1.4, 0.1, 0.5, 7, 0.01, 1e-7),
        TradeoffPoint(0.5, 3, 1.2, 1.1, 0.0, 0.75, 5, 0.02, 2e-7),
    ]
    path = tmp_path / "curve.csv"
    write_tradeoff_csv(points, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("gamma,cardinality,J_sparse,J_polished,rel_loss,"
                        "rel_card,iterations,polish_gap,wall_time_s")
    assert len(lines) == 3
    # rows are ordered by gamma
    assert lines[1].startswith("0.5,3,")
    assert lines[2].startswith("1,2,")
    with pytest.raises(InvalidInputError):
        write_tradeoff_csv([], tmp_path / "empty.csv")


def test_csv_twelve_significant_digits(tmp_path):
    pt = TradeoffPoint(1.0 / 3.0, 1, 2.0 / 3.0, 0.1, 0.0, 1.0, 1, 0.0, 0.0)
    path = tmp_path / "digits.csv"
    write_tradeoff_csv([pt], path)
    row = path.read_text().strip().splitlines()[1].split(",")
    assert row[0] == "0.333333333333"
    assert row[2] == "0.666666666667"


def test_csv_columns_are_the_json_point_keys(p3_file, tmp_path):
    # both views of a sweep are one record per point: the CSV's columns in
    # the record's order, the JSON's keys (written sorted) the same names;
    # a JSON null (the uncertified polish of the empty support at gamma_max)
    # is an empty CSV field
    csv, report = tmp_path / "c.csv", tmp_path / "c.json"
    assert run(["sweep", "--plant", p3_file, "--resistive", "--gammas",
                "log:0.1:2:4", "--csv", str(csv), "--out", str(report)]) == EXIT_OK
    header, *rows = [r.split(",") for r in csv.read_text().splitlines()]
    assert header == list(_point_record(TradeoffPoint(0.0, 0, 0.0, 0.0, 0.0,
                                                      0.0, 0, 0.0, 0.0)))
    points = sorted(json.loads(report.read_text())["points"],
                    key=lambda p: p["gamma"])
    assert len(points) == len(rows) == 4
    for point, row in zip(points, rows):
        assert list(point) == sorted(header)
        assert row == ["" if point[k] is None else str(point[k])
                       if isinstance(point[k], int) else f"{point[k]:.12g}"
                       for k in header]
    assert points[-1]["cardinality"] == 0 and points[-1]["polish_gap"] is None


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


#: cardinality and J_polished of the pinned sweep below, to 12 significant
#: digits; a change to these is a change of results, not of code
PINNED_SWEEP = [
    ("23", "5.10595656557"),
    ("16", "5.13485207517"),
    ("12", "5.23525024727"),
    ("4", "5.55780971038"),
]


def test_sweep_regression_pin(tmp_path):
    plant = tmp_path / "er.edges"
    csv = tmp_path / "pin.csv"
    assert run(["gen", "erdos_renyi", "--n", "10", "--p", "0.3", "--seed",
                "1", "--out", str(plant)]) == EXIT_OK
    code = run(["sweep", "--plant", str(plant), "--resistive", "--method",
                "proxbb", "--gammas", "log:0.05gmax:0.8gmax:4", "--csv",
                str(csv), "--out", str(tmp_path / "pin.json")])
    assert code == EXIT_OK
    rows = [r.split(",") for r in csv.read_text().strip().splitlines()[1:]]
    assert [(r[1], r[3]) for r in rows] == PINNED_SWEEP


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
    assert doc["objective"]["polish_gap"] <= pipeline.POLISH_TOL_GAP


def test_polish_rejects_non_candidate_edge(p3_file, tmp_path):
    sup = tmp_path / "sup.edges"
    sup.write_text("0 1\n")  # a plant edge, not a candidate
    code = run(["polish", "--plant", p3_file, "--resistive", "--edges",
                str(sup)])
    assert code == EXIT_INVALID


def test_polish_names_the_first_non_candidate_edge(tmp_path, capsys):
    plant = tmp_path / "path.edges"
    graphs.write_edge_list(graphs.generate("path", 5), plant)
    sup = tmp_path / "sup.edges"
    # (4, 3) is the plant edge (3, 4); (0, 9) is off the plant's nodes
    for text, first in (("0 2\n4 3\n1 3\n0 1\n", "(3, 4)"),
                        ("n 10\n1 4\n0 9\n2 1\n", "(0, 9)")):
        sup.write_text(text)
        assert run(["polish", "--plant", str(plant), "--resistive", "--edges",
                    str(sup)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"edge {first} is not a candidate edge" in err


def test_polish_finds_support_edges_in_any_order(tmp_path):
    # a shuffled candidate file and a support written as "j i": the support
    # is looked up by its pairs, in the support file's order
    plant_edges = graphs.generate("path", 6)
    cand = graphs.complement_candidates(plant_edges)
    order = np.random.Generator(np.random.PCG64(3)).permutation(cand.m)
    cand = graphs.EdgeList(6, cand.pairs[order], cand.weights[order])
    plant, cands, sup = (tmp_path / name for name in ("p.edges", "c.edges", "s.edges"))
    graphs.write_edge_list(plant_edges, plant)
    graphs.write_edge_list(cand, cands)
    sup.write_text("5 0\n2 0\n1 4\n")
    report = tmp_path / "r.json"
    assert run(["polish", "--plant", str(plant), "--candidates", str(cands),
                "--resistive", "--edges", str(sup), "--out", str(report)]) == EXIT_OK
    doc = json.loads(report.read_text())
    prob = graphs.default_problem(plant_edges, cand, resistive=True)
    index = {(int(i), int(j)): l for l, (i, j) in enumerate(cand.pairs)}
    x, J, _ = pipeline.polish(prob, [index[(0, 5)], index[(0, 2)], index[(1, 4)]])
    assert doc["objective"]["J_polished"] == J
    assert sorted((i, j) for i, j, _ in doc["solution"]) == [(0, 2), (0, 5), (1, 4)]


def test_exit_codes(tmp_path, p3_file):
    # missing file -> invalid input
    assert run(["solve", "--plant", str(tmp_path / "no.edges"), "--gamma",
                "1"]) == EXIT_INVALID
    # a node index beyond the C long range -> invalid input
    huge = tmp_path / "huge.edges"
    huge.write_text("0 1\n1 99999999999999999999\n")
    assert run(["gammamax", "--plant", str(huge)]) == EXIT_INVALID
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
    ["sweep", "--gammas", "0.5", "--method", "projgrad"],
])
def test_removed_flags_are_usage_errors(p3_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv[:1] + ["--plant", p3_file, "--resistive"] + argv[1:])
    assert exc.value.code == EXIT_INVALID
    expected = "invalid choice" if "projgrad" in argv else "unrecognized arguments"
    assert expected in capsys.readouterr().err


def test_sweep_has_no_cold_start(p3_file, tmp_path, capsys):
    # every sweep warm-starts along its path: --cold is a usage error, and
    # the report's config echo has no cold key
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--plant", p3_file, "--resistive", "--gammas", "0.5",
             "--cold"])
    assert exc.value.code == EXIT_INVALID
    assert "unrecognized arguments: --cold" in capsys.readouterr().err
    report = tmp_path / "s.json"
    assert run(["sweep", "--plant", p3_file, "--resistive", "--gammas", "0.5",
                "--out", str(report)]) == EXIT_OK
    doc = strict_json(report)
    assert doc["format"] == "gsp-report-5"
    assert "cold" not in doc["config"]


@pytest.mark.parametrize("method", ["proxn", "proxbb"])
@pytest.mark.parametrize("flag", [["--tol-gap", "-1"], ["--tol-rd", "0"],
                                  ["--max-iters", "0"], ["--tol-gap", "nan"],
                                  ["--tol-rd", "inf"]])
def test_bad_solver_flags_are_invalid_input(p3_file, method, flag):
    assert run(["solve", "--plant", p3_file, "--resistive", "--gamma", "0.5",
                "--method", method, "--no-baseline"] + flag) == EXIT_INVALID


@pytest.mark.parametrize("count", ["abc", "2.5", "-3", str(2**70)])
def test_malformed_node_count_is_invalid_input(tmp_path, count):
    plant = tmp_path / "bad.edges"
    plant.write_text(f"n {count}\n")
    assert run(["gammamax", "--plant", str(plant)]) == EXIT_INVALID


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("argv", [["gammamax"], ["solve", "--gamma", "0.1"],
                                  ["sweep", "--gammas", "0.1"]],
                         ids=["gammamax", "solve", "sweep"])
def test_plants_of_fewer_than_two_nodes_are_invalid_input(tmp_path, capsys,
                                                          n, argv):
    # n = 0 would divide by n in the strengthened Laplacian, and n = 1 by
    # the centralized objective J_c = 0; both are rejected on loading
    plant = tmp_path / "small.edges"
    plant.write_text(f"n {n}\n")
    assert run(argv[:1] + ["--plant", str(plant)] + argv[1:]) == EXIT_INVALID
    assert "a plant needs at least two nodes" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["0.1", "0.5gmax"])
def test_overflowing_effective_weight_is_invalid_input(tmp_path, capsys,
                                                      gamma):
    # L_p R L_p overflows at r_scale = 1e307: the problem is rejected when it
    # is built, before any solve or gamma spec is read
    plant = tmp_path / "er12.edges"
    graphs.write_edge_list(graphs.generate("erdos_renyi", 12, p=0.4, seed=9),
                           plant)
    assert run(["solve", "--plant", str(plant), "--r-scale", "1e307",
                "--gamma", gamma]) == EXIT_INVALID
    assert "effective state weight" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["proxn", "proxbb"])
def test_infinite_gamma_is_invalid_input(p3_file, method):
    assert run(["solve", "--plant", p3_file, "--resistive", "--gamma", "inf",
                "--method", method, "--no-baseline"]) == EXIT_INVALID


@pytest.mark.parametrize("spec", ["inf", "nan", "-1", "log:0.1:inf:3",
                                  "log:nan:1:3", "log:0.1:1e400:3"])
def test_bad_gamma_spec_fails_before_any_solve(p3_file, tmp_path, monkeypatch,
                                              spec):
    calls = []
    real_solve = pipeline._solve

    def spy(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_solve", spy)
    assert run(["sweep", "--plant", p3_file, "--resistive", "--gammas", spec,
                "--csv", str(tmp_path / "c.csv")]) == EXIT_INVALID
    assert calls == []


def test_solve_rejects_gamma_ranges(p3_file):
    assert run(["solve", "--plant", p3_file, "--resistive", "--gamma",
                "log:0.1:1:3"]) == EXIT_INVALID


def test_solver_option_flags(p3_file, tmp_path):
    report = tmp_path / "t.json"
    code = run(["solve", "--plant", p3_file, "--resistive", "--gamma", "1.0",
                "--method", "proxbb", "--tol-gap", "1e-10", "--tol-rd",
                "1e-6", "--max-iters", "500", "--no-baseline", "--out",
                str(report)])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["solve"]["final_gap"] <= 1e-10
    assert doc["config"]["tol_gap"] == 1e-10
