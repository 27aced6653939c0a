"""Tests of the benchmark itself: output checks, span arithmetic, process handling.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import tracing
from workloads import OrderExact, RatesL1


def write_order_output(out: Path, order: list[int]) -> None:
    out.mkdir()
    sigmas = [1.0 + 0.1 * i for i in range(len(order))]
    est = {"order": order, "sigma_hat": sigmas, "score": math.fsum(math.log(s) for s in sigmas)}
    (out / "order.json").write_text(json.dumps(est), encoding="utf-8")
    (out / "summary.txt").write_text(f"method: exact\norder: {' '.join(map(str, order))}\n", encoding="utf-8")


def test_order_check_accepts_generating_order_and_rejects_a_swap(tmp_path):
    w = OrderExact(seed=5)
    w.prepare(tmp_path)
    write_order_output(tmp_path / "good", w.order)
    assert w.check(tmp_path / "good", None) == []
    swapped = list(w.order)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    write_order_output(tmp_path / "bad", swapped)
    problems = w.check(tmp_path / "bad", None)
    assert len(problems) == 1 and "generating order" in problems[0]


def test_order_check_rejects_a_score_that_is_not_the_sum_of_logs(tmp_path):
    w = OrderExact(seed=0)
    w.prepare(tmp_path)
    write_order_output(tmp_path / "out", w.order)
    est = json.loads((tmp_path / "out" / "order.json").read_text(encoding="utf-8"))
    est["score"] += 1e-3
    (tmp_path / "out" / "order.json").write_text(json.dumps(est), encoding="utf-8")
    assert any("sum of log" in p for p in w.check(tmp_path / "out", None))


def write_rates(out: Path, values: list[list[float]]) -> None:
    out.mkdir()
    cells = [{"skipped": False, "values": v} for v in values]
    (out / "rates.json").write_text(json.dumps({"cells": cells}), encoding="utf-8")


def test_rates_check_rejects_l1_value_above_ellipsoid_value(tmp_path):
    w = RatesL1(seed=0)
    bounds = [[0.1 * (i + r + 1) for r in range(w.REPS)] for i in range(len(w.GRID))]
    write_rates(tmp_path / "ellipsoid", bounds)
    good = [list(row) for row in bounds]
    good[0][0] *= 0.5
    write_rates(tmp_path / "good", good)
    assert w.check(tmp_path / "good", tmp_path / "ellipsoid") == []
    good[1][1] *= 1.01
    write_rates(tmp_path / "bad", good)
    problems = w.check(tmp_path / "bad", tmp_path / "ellipsoid")
    assert len(problems) == 1 and "exceeds the ellipsoid value" in problems[0]


def test_nonzero_exit_is_a_failed_process(tmp_path):
    p = run.spawn(["order", "--config", str(tmp_path / "missing.json")], tmp_path / "out", timeout=60)
    assert p.problems and p.problems[0].startswith("exit 2")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    # outer: 0..10, inner spans 2..5 and 6..7, innermost 3..4 inside the first
    rec = tracing.Recorder(clock=FakeClock([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0]))
    innermost = rec.wrap("c", lambda: None)

    def first():
        innermost()

    inner = rec.wrap("b", lambda f=None: f() if f else None)
    outer = rec.wrap("a", lambda: (inner(first), inner()))
    outer()
    summary = rec.summary()
    layers = summary["layers"]
    assert layers["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert layers["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert layers["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert summary["nested"] == {"a": {"b": 2, "c": 1}, "b": {"c": 1}}


def test_self_check_names_wrong_and_nonzero_counts():
    w = RatesL1(seed=0)
    counters = {name: 0 for name in w.bypassed}
    counters["empproc.z_sup_l1.calls"] = len(w.GRID) * w.REPS
    assert run.self_check(w, counters) == []
    counters["empproc.z_sup_l1.calls"] -= 1
    counters["regress.fit_span.calls"] = 1
    problems = run.self_check(w, counters)
    assert len(problems) == 2


def test_traced_process_wraps_every_binding_site(tmp_path):
    cfg = {
        "sem": {
            "p": 3,
            "order": [1, 2, 3],
            "edges": [{"from": 1, "to": 2, "kind": "sine", "params": [2.0, 1.5]}],
            "noise_sd": [1.0, 0.3, 0.3],
        },
        "n": 200,
        "class": {"dictionary": {"family": "cubic-b-spline", "size": 4, "domain": [-5.0, 5.0]}},
    }
    path = tmp_path / "order.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    p = run.spawn(["order", "--config", str(path)], tmp_path / "out", timeout=60, traced=True)
    assert p.problems == []
    assert "semorder.order.fit_span" in p.trace["sites"]["regress.fit_span"]
    assert "semorder.cli.sample" in p.trace["sites"]["semgen.sample"]
    counters = tracing.layer_counters(p.trace)
    assert counters["regress.fit_span.calls"] == 3 * 2 ** 2
    assert counters["order.fits_per_search"] == 3 * 2 ** 2
    assert counters["semgen.sample.rows"] == 200
    assert counters["cli.main.calls"] == 1
    assert p.import_times["semorder.cli"] > 0


@pytest.mark.parametrize(
    "line, expected",
    [
        ("import time:       412 |      73021 | semorder.dictionary", {"semorder.dictionary": 0.073021}),
        ("import time: self [us] | cumulative | imported package", {}),
    ],
)
def test_parse_import_times(line, expected):
    assert run.parse_import_times(line) == expected
