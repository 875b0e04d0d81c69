"""Self-time arithmetic of the span recorder and the installed wrappers."""

import numpy as np
import pytest

import spans


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_nested_self_time():
    # root [0, 10] holds a [1, 3] and b [5, 9]; b holds c [6, 7]
    rec = spans.SpanRecorder(clock=FakeClock([0, 1, 3, 5, 6, 7, 9, 10]))
    root = rec.open("root")
    a = rec.open("a")
    rec.close(a)
    b = rec.open("b")
    c = rec.open("c")
    rec.close(c)
    rec.close(b)
    rec.close(root)
    assert rec.parents == [-1, 0, 0, 2]
    assert rec.self_times() == [4, 2, 3, 1]
    assert rec.table() == {"root": (1, 4), "a": (1, 2), "b": (1, 3), "c": (1, 1)}
    assert rec.table_by_parent("c", "b") == (1, 1)
    assert rec.table_by_parent("c", "root") == (0, 0.0)


def test_close_out_of_order_is_an_error():
    rec = spans.SpanRecorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_instrumentation_records_and_restores():
    import gsp.graphs
    import gsp.objective
    import gsp.proxnewton

    originals = (gsp.graphs.controller_laplacian, gsp.objective.closed_loop,
                 gsp.graphs.ClosedLoop.__dict__["solve"], gsp.proxnewton.solve_newton)
    plant = gsp.graphs.generate("path", 5)
    prob = gsp.graphs.default_problem(plant, resistive=True, gamma=0.1)
    rec = spans.SpanRecorder()
    with spans.Instrumentation(rec):
        assert gsp.graphs.controller_laplacian is not originals[0]
        x, report = gsp.proxnewton.solve_newton(prob)
    assert (gsp.graphs.controller_laplacian, gsp.objective.closed_loop,
            gsp.graphs.ClosedLoop.__dict__["solve"],
            gsp.proxnewton.solve_newton) == originals
    table = rec.table()
    assert table["proxnewton.solve_newton"][0] == 1
    assert table["graphs.controller_laplacian"][0] >= 1
    metrics = spans.layer_metrics(rec, rounds=1)
    assert metrics["proxnewton.outer_iters"] == (report.iterations, "count")
    assert metrics["proxnewton.cd_direction.calls"][0] >= report.iterations
    assert metrics["proxnewton.ginv.calls"][0] == metrics["proxnewton.cd_direction.calls"][0]
    assert metrics["proxnewton.ls_trials"][0] >= report.iterations
    # self times add up to the root span's duration
    root = rec.names.index("proxnewton.solve_newton")
    total = rec.ends[root] - rec.starts[root]
    assert sum(rec.self_times()) == pytest.approx(total, rel=1e-9)
    assert np.all(np.asarray(rec.self_times()) >= 0)
