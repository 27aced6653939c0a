import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semorder
from semorder import cli
from semorder.empproc import L1_MAX_DIM
from semorder.errors import DegeneracyError
from semorder.semgen import DataMatrix


SPLINE5 = {"dictionary": {"family": "cubic-b-spline", "size": 6, "domain": [-5.0, 5.0]}}
TRIG3 = {"dictionary": {"family": "trigonometric", "size": 3, "domain": [-1.0, 1.0]}}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def sine_chain_cfg(p=3, noise=0.3):
    edges = [
        {"from": j, "to": j + 1, "kind": "sine", "params": [2.0, 1.5]}
        for j in range(1, p)
    ]
    return {
        "p": p,
        "order": list(range(1, p + 1)),
        "edges": edges,
        "noise_sd": [1.0] + [noise] * (p - 1),
    }


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_single_variable(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"sem": {"p": 1, "order": [1], "edges": [], "noise_sd": [1.5]}, "n": 50})
    out = tmp_path / "run"
    code, _, err = run(["simulate", "--config", cfg, "--out", str(out), "--seed", "7"], capsys)
    assert code == 0 and err == ""
    lines = (out / "data.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x1"
    assert len(lines) == 51
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == ["data.csv"]
    assert manifest["seed"] == 7
    assert set(manifest) == {"command", "config", "outputs", "seed", "threads", "version"}


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"sem": sine_chain_cfg(), "n": 400})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", cfg, "--out", str(out1), "--seed", "3"], capsys)[0] == 0
    assert run(["simulate", "--config", cfg, "--out", str(out2), "--seed", "3"], capsys)[0] == 0
    assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
    # a different seed must change the data
    out3 = tmp_path / "c"
    assert run(["simulate", "--config", cfg, "--out", str(out3), "--seed", "4"], capsys)[0] == 0
    assert (out1 / "data.csv").read_bytes() != (out3 / "data.csv").read_bytes()


def test_simulate_cycle_names_offending_edge(tmp_path, capsys):
    sem = sine_chain_cfg(p=2)
    sem["edges"] = [{"from": 2, "to": 1, "kind": "linear", "params": [1.0]}]
    cfg = write_cfg(tmp_path, "c.json", {"sem": sem, "n": 10})
    code, _, err = run(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "2->1" in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "cannot read config" in err


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["order", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2


def test_threads_must_be_positive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"sem": sine_chain_cfg(), "n": 50})
    code, _, err = run(
        ["simulate", "--config", cfg, "--out", str(tmp_path / "r"), "--threads", "0"], capsys
    )
    assert code == 2 and "--threads" in err


def test_order_recovers_sine_chain_from_csv(tmp_path, capsys):
    sim_cfg = write_cfg(tmp_path, "sim.json", {"sem": sine_chain_cfg(), "n": 3000})
    sim_out = tmp_path / "sim"
    assert run(["simulate", "--config", sim_cfg, "--out", str(sim_out), "--seed", "12"], capsys)[0] == 0
    ord_cfg = write_cfg(
        tmp_path, "ord.json", {"data": str(sim_out / "data.csv"), "class": SPLINE5, "method": "exact"}
    )
    ord_out = tmp_path / "ord"
    code, _, _ = run(["order", "--config", ord_cfg, "--out", str(ord_out)], capsys)
    assert code == 0
    est = json.loads((ord_out / "order.json").read_text(encoding="utf-8"))
    assert est["order"] == [1, 2, 3]
    assert est["method"] == "exact"
    summary = (ord_out / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "method: exact"
    assert summary[1] == "order: 1 2 3"
    assert summary[2].startswith("score: ")
    assert summary[4] == "position variable sigma_hat flags"
    assert len(summary) == 8


def test_order_single_column_score_is_log_variance(tmp_path, capsys):
    rng = np.random.default_rng(60)
    y = rng.standard_normal(300) * 1.7
    DataMatrix(y.reshape(-1, 1)).to_csv(tmp_path / "one.csv")
    cfg = write_cfg(tmp_path, "c.json", {"data": str(tmp_path / "one.csv"), "class": TRIG3})
    out = tmp_path / "r"
    assert run(["order", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    est = json.loads((out / "order.json").read_text(encoding="utf-8"))
    assert est["order"] == [1]
    assert abs(est["score"] - math.log(float(np.mean((y - y.mean()) ** 2)))) <= 1e-9


def test_order_output_independent_of_threads(tmp_path, capsys):
    sim_cfg = write_cfg(tmp_path, "sim.json", {"sem": sine_chain_cfg(), "n": 500})
    sim_out = tmp_path / "sim"
    assert run(["simulate", "--config", sim_cfg, "--out", str(sim_out), "--seed", "2"], capsys)[0] == 0
    cfg = write_cfg(tmp_path, "c.json", {"data": str(sim_out / "data.csv"), "class": SPLINE5})
    outs = []
    for tag, threads in (("t1", "1"), ("t8", "8")):
        out = tmp_path / tag
        assert run(["order", "--config", cfg, "--out", str(out), "--threads", threads], capsys)[0] == 0
        outs.append((out / "order.json").read_bytes())
    assert outs[0] == outs[1]


def test_order_capacity_suggests_greedy(tmp_path, capsys):
    rng = np.random.default_rng(61)
    DataMatrix(rng.standard_normal((60, 19))).to_csv(tmp_path / "wide.csv")
    cfg = write_cfg(tmp_path, "c.json", {"data": str(tmp_path / "wide.csv"), "class": TRIG3})
    code, _, err = run(["order", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert 'rerun with "method": "greedy"' in err
    cfg2 = write_cfg(
        tmp_path, "c2.json", {"data": str(tmp_path / "wide.csv"), "class": TRIG3, "method": "greedy"}
    )
    out = tmp_path / "r2"
    assert run(["order", "--config", cfg2, "--out", str(out)], capsys)[0] == 0
    est = json.loads((out / "order.json").read_text(encoding="utf-8"))
    assert sorted(est["order"]) == list(range(1, 20))


def test_order_capacity_of_greedy_gets_no_greedy_hint(tmp_path, capsys):
    # one conditioning column already needs N + 1 = 7 rows, so greedy fails too
    cfg = write_cfg(tmp_path, "c.json", {"sem": sine_chain_cfg(p=3), "n": 3, "class": SPLINE5})
    code, _, err = run(["order", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "rows, have 3" in err and "greedy" not in err


def test_order_missing_inputs_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"class": TRIG3})
    code, _, err = run(["order", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2 and "'data' path" in err


def test_rates_smoke_and_outputs(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {"case": "case4", "grid": [{"n": 256, "p": 2, "N": 2}, {"n": 1024, "p": 2, "N": 2}], "reps": 5},
    )
    out = tmp_path / "r"
    code, _, _ = run(["rates", "--config", cfg, "--out", str(out), "--seed", "5"], capsys)
    assert code == 0
    rep = json.loads((out / "rates.json").read_text(encoding="utf-8"))
    assert rep["case"] == "case4"
    assert len(rep["cells"]) == 2 and len(rep["slopes"]) == 1
    assert rep["cells"][0]["mean"] > rep["cells"][1]["mean"]
    csv_lines = (out / "rates.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0].startswith("record,")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["self_test"] is False
    assert manifest["outputs"] == ["rates.json", "rates.csv"]


def test_rates_self_test_zeroes_every_cell(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "c.json", {"case": "case4", "grid": [{"n": 256, "p": 3, "N": 2}], "reps": 4}
    )
    out = tmp_path / "r"
    code, _, _ = run(["rates", "--config", cfg, "--out", str(out), "--self-test"], capsys)
    assert code == 0
    rep = json.loads((out / "rates.json").read_text(encoding="utf-8"))
    assert rep["self_test"] is True
    assert all(c["mean"] == 0.0 for c in rep["cells"])


def test_misspec_smoke_reports_rate_and_slope(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "truth": {"kind": "cubic", "params": [1.0], "noise_sd": 0.3},
            "class": TRIG3,
            "n_grid": [256, 1024],
            "reps": 4,
            "oracle_n": 30000,
        },
    )
    out = tmp_path / "r"
    code, _, _ = run(["misspec", "--config", cfg, "--out", str(out), "--seed", "9"], capsys)
    assert code == 0
    rep = json.loads((out / "misspec.json").read_text(encoding="utf-8"))
    assert "slope" in rep and rep["slope"] < 0.0
    for cell in rep["cells"]:
        assert cell["delta_n"] > 0.0
        assert cell["ratio_to_delta_n"] > 0.0
    assert (out / "misspec.csv").exists()


def _misspec(tmp_path, capsys, cls):
    cfg = {
        "truth": {"kind": "cubic", "params": [1.0], "noise_sd": 0.3},
        "class": cls,
        "n_grid": [256, 1024],
        "reps": 2,
        "oracle_n": 20000,
    }
    out = tmp_path / "r"
    code, _, err = run(["misspec", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(out)], capsys)
    return code, err, (json.loads((out / "misspec.json").read_text(encoding="utf-8")) if code == 0 else None)


@pytest.mark.parametrize("family,size", [("cubic-b-spline", 6), ("piecewise-constant", 6), ("trigonometric", 3)])
@pytest.mark.parametrize("intercept", [True, False])
def test_misspec_span_classes_have_full_rank_designs(tmp_path, capsys, family, size, intercept):
    # the design has the span's dimension: N for a partition of unity, which
    # has the constants already, and intercept + N for the trigonometric family
    dictionary = {"family": family, "size": size, "domain": [-1.0, 1.0]}
    code, err, rep = _misspec(tmp_path, capsys, {"dictionary": dictionary, "intercept": intercept})
    assert code == 0, err
    assert rep["n_features"] == (size + intercept if family == "trigonometric" else size)
    assert rep["lambda_min"] >= 1e-3
    assert all(0.0 < c["delta_n"] < 10.0 for c in rep["cells"])


@pytest.mark.parametrize("family", ["cubic-b-spline", "piecewise-constant"])
def test_misspec_l1_partition_of_unity_with_intercept_is_degenerate(tmp_path, capsys, family):
    # an l1 class keeps whole blocks, which sum to the intercept column
    dictionary = {"family": family, "size": 6, "domain": [-1.0, 1.0]}
    code, err, _ = _misspec(tmp_path, capsys, {"dictionary": dictionary, "kind": "l1", "budget": 3.0})
    assert code == 3
    assert "Lambda_min" in err


def test_gap_linear_chain_is_zero_within_tolerance(tmp_path, capsys):
    sem = {
        "p": 2,
        "order": [1, 2],
        "edges": [{"from": 1, "to": 2, "kind": "linear", "params": [1.0]}],
        "noise_sd": [1.0, 1.0],
    }
    cls = {"dictionary": {"family": "cubic-b-spline", "size": 6, "domain": [-12.0, 12.0]}}
    cfg = write_cfg(
        tmp_path, "c.json", {"sem": sem, "class": cls, "oracle_n": 50000, "replicates": 6}
    )
    out = tmp_path / "r"
    code, _, _ = run(["gap", "--config", cfg, "--out", str(out), "--seed", "77"], capsys)
    assert code == 0
    rep = json.loads((out / "gap.json").read_text(encoding="utf-8"))
    assert rep["gap_se"] is not None
    assert abs(rep["gap_mean"]) <= max(3.0 * rep["gap_se"], 1e-4)
    assert rep["order"] == [1, 2]
    assert len(rep["table"]) == 2
    assert sum(row["topological"] for row in rep["table"]) == 1


def test_gap_sine_chain_is_positive(tmp_path, capsys):
    cls = {"dictionary": {"family": "cubic-b-spline", "size": 6, "domain": [-5.0, 5.0]}}
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {"sem": sine_chain_cfg(p=2), "class": cls, "oracle_n": 20000, "replicates": 2},
    )
    out = tmp_path / "r"
    code, _, _ = run(["gap", "--config", cfg, "--out", str(out), "--seed", "21"], capsys)
    assert code == 0
    rep = json.loads((out / "gap.json").read_text(encoding="utf-8"))
    assert rep["gap_mean"] > 0.1
    assert all(g > 0.1 for g in rep["gaps"])


def test_empnorm_self_test_zeroes_all_suprema(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"n": 200, "p": 3, "budget": 1.0})
    out = tmp_path / "r"
    code, _, _ = run(["empnorm", "--config", cfg, "--out", str(out), "--self-test"], capsys)
    assert code == 0
    rep = json.loads((out / "empnorm.json").read_text(encoding="utf-8"))
    assert rep["self_test"] is True
    assert rep["z_sup_ellipsoid"] == 0.0
    assert rep["z_sup_l1"] == 0.0
    assert rep["inner_product_sup"] == 0.0
    assert rep["subgauss_product_sup"] == 0.0
    assert rep["delta_n"] > 0.0


def test_empnorm_single_regressor(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"n": 150, "p": 1})
    out = tmp_path / "r"
    code, _, err = run(["empnorm", "--config", cfg, "--out", str(out)], capsys)
    assert code == 0 and err == ""
    rep = json.loads((out / "empnorm.json").read_text(encoding="utf-8"))
    assert rep["inner_product_sup"] is None
    assert rep["delta_n"] == 0.0  # the log p factor vanishes at p = 1
    assert rep["z_sup_ellipsoid"] > 0.0
    assert rep["z_sup_l1"] <= rep["z_sup_ellipsoid"] + 1e-8
    assert rep["j_integral_l1"] > 0.0 and rep["entropy_bound_l1"] >= 1.0


def test_empnorm_rejects_oversized_p(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"n": 5, "p": 10})
    code, _, err = run(["empnorm", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2 and "p <= n" in err


def test_empnorm_caps_the_l1_dimension(tmp_path, capsys):
    p = L1_MAX_DIM + 1
    cfg = write_cfg(tmp_path, "c.json", {"n": 1000, "p": p})
    code, _, err = run(["empnorm", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2 and f"L1_MAX_DIM = {L1_MAX_DIM}" in err and f"d={p}" in err
    assert f"{(3**p - 1) // 2} faces" in err


def test_rates_benchmark_config_runs_and_stays_below_the_ellipsoid(tmp_path, capsys):
    # the benchmark's rates-l1 config, which still passes "restarts": keys the
    # CLI does not read are ignored
    grid = [{"n": n, "p": 2, "N": 3, "M": 1.0} for n in (500, 1000, 2000)]
    l1_cfg = {"case": "case3", "grid": grid, "reps": 2, "family": "trigonometric", "restarts": 8}
    ell_cfg = {"case": "case4", "grid": [{k: v for k, v in c.items() if k != "M"} for c in grid], "reps": 2, "family": "trigonometric"}
    cells = {}
    for name, cfg in (("l1", l1_cfg), ("ellipsoid", ell_cfg)):
        out = tmp_path / name
        code, _, err = run(["rates", "--config", write_cfg(tmp_path, f"{name}.json", cfg), "--out", str(out), "--seed", "0"], capsys)
        assert code == 0 and err == ""
        cells[name] = json.loads((out / "rates.json").read_text(encoding="utf-8"))["cells"]
    for cell, ell in zip(cells["l1"], cells["ellipsoid"], strict=True):
        assert not cell["skipped"] and not ell["skipped"]
        for v, b in zip(cell["values"], ell["values"], strict=True):
            assert 0.0 < v <= b * (1.0 + 1e-9)


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("gap", {"sem": sine_chain_cfg(p=2), "class": SPLINE5, "oracle_n": "lots"}, "oracle_n"),
        ("rates", {"case": "case3", "grid": [{"n": 50, "p": 2, "N": 3, "M": 1.0}], "reps": "x"}, "reps"),
        ("empnorm", {"n": 50, "p": 2, "noise_sd": math.inf}, "noise_sd"),
        ("empnorm", {"n": 50, "p": 2, "response_coefficients": [1.0, math.nan]}, "response_coefficients"),
        ("empnorm", {"n": 50, "p": 2, "response_coefficients": "x"}, "response_coefficients"),
        ("empnorm", {"n": 50, "p": 2, "response_coefficients": ["x", 1.0]}, "response_coefficients"),
        ("rates", {"case": "case3", "grid": [{"n": 50, "p": 2, "N": "three", "M": 1.0}], "reps": 1}, "N"),
        ("rates", {"case": "case3", "grid": [{"n": 50, "p": 2, "N": 2.5, "M": 1.0}], "reps": 1}, "N"),
        ("rates", {"case": "case3", "grid": [{"n": 50, "p": 2, "N": 3, "M": "big"}], "reps": 1}, "M"),
        ("rates", {"case": "case3", "grid": [{"p": 2, "N": 3, "M": 1.0}], "reps": 1}, "sample size n"),
        ("rates", {"case": "case3", "grid": [{"n": 50, "p": 2, "N": 3, "M": 1.0}], "reps": 1, "domain": "ab"}, "domain"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "edges": [{"from": 1, "to": 2, "kind": "sine", "params": ["x", 1]}]}, "n": 50, "class": SPLINE5}, "params"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "noise_sd": ["a", 1]}, "n": 50, "class": SPLINE5}, "noise_sd"),
        ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {"dictionary": {**SPLINE5["dictionary"], "size": "six"}}}, "size"),
        ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {"dictionary": {**SPLINE5["dictionary"], "domain": ["a", 1]}}}, "domain"),
        ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {**SPLINE5, "kind": "l1", "budget": "big"}}, "budget"),
        ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {**SPLINE5, "kind": "l1", "budget": [1]}}, "budget"),
        ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {**SPLINE5, "kind": "l1", "budget": math.inf}}, "budget"),
        ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {**SPLINE5, "intercept": "false"}}, "intercept"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "p": 2.5}, "n": 50, "class": SPLINE5}, "'p'"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "order": [1.7, 2]}, "n": 50, "class": SPLINE5}, "'order'"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "edges": [{"from": 1.9, "to": 2, "kind": "sine", "params": [2.0, 1.5]}]}, "n": 50, "class": SPLINE5}, "'from'"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "edges": 5}, "n": 50, "class": SPLINE5}, "'edges'"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "edges": [{"from": 1, "to": 2, "kind": "dictionary-combination", "params": {"coefficients": [1.0]}}]}, "n": 50, "class": SPLINE5}, "dictionary"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "edges": sine_chain_cfg(p=2)["edges"] * 2}, "n": 50, "class": SPLINE5}, "listed twice"),
        ("order", {"sem": {**sine_chain_cfg(p=2), "edges": [{"from": 1, "to": 2, "kind": "dictionary-combination", "params": {**SPLINE5, "coefficients": 5}}]}, "n": 50, "class": SPLINE5}, "coefficients"),
        ("simulate", {"sem": {**sine_chain_cfg(p=2), "p": "2"}, "n": 50}, "'p'"),
        ("simulate", {"sem": {**sine_chain_cfg(p=2), "order": "12"}, "n": 50}, "'order'"),
        ("simulate", {"sem": {**sine_chain_cfg(p=2), "noise_sd": "11"}, "n": 50}, "'noise_sd'"),
        ("simulate", {"sem": sine_chain_cfg(p=2), "n": True}, "'n'"),
        ("simulate", {"sem": sine_chain_cfg(p=2), "n": "50"}, "'n'"),
        ("simulate", {"sem": {**sine_chain_cfg(p=2), "noise_sd": [1.0, True]}, "n": 50}, "noise_sd"),
        ("rates", {"case": "case3", "grid": [{"n": "50", "p": 2, "N": 3, "M": 1.0}], "reps": 1}, "'n'"),
        ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {**SPLINE5, "kind": "l1", "budget": True}}, "budget"),
    ],
)
def test_bad_numeric_config_entry_is_usage_error(tmp_path, capsys, command, cfg, key):
    path = write_cfg(tmp_path, "c.json", cfg)
    out = tmp_path / "r"
    code, _, err = run([command, "--config", path, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and key in err
    assert not (out / f"{command}.json").exists()


def test_degeneracy_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def boom(cfg, seed, out, self_test):
        raise DegeneracyError("Lambda_min collapsed in a scripted failure")

    monkeypatch.setitem(cli._COMMANDS, "empnorm", boom)
    cfg = write_cfg(tmp_path, "c.json", {"n": 50, "p": 2})
    code, _, err = run(["empnorm", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 3
    assert err.startswith("numerical degeneracy:")
    assert "Lambda_min" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_order_rejects_non_finite_csv(tmp_path, capsys, cell):
    rng = np.random.default_rng(12)
    rows = [",".join(format(v, ".17g") for v in r) for r in rng.standard_normal((40, 3))]
    rows[7] = f"0.5,{cell},1.5"
    data = tmp_path / "bad.csv"
    data.write_text("x1,x2,x3\n" + "\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, "c.json", {"data": str(data), "class": TRIG3})
    code, _, err = run(["order", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "bad.csv" in err and "x2" in err and "non-finite" in err


def test_order_rejects_column_whose_mean_square_overflows(tmp_path, capsys):
    x = np.random.default_rng(13).standard_normal((40, 3))
    x[:, 1] *= 1e160
    DataMatrix(x).to_csv(tmp_path / "big.csv")
    cfg = write_cfg(tmp_path, "c.json", {"data": str(tmp_path / "big.csv"), "class": TRIG3})
    code, _, err = run(["order", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert err.startswith("error:") and "x2" in err


def test_gap_rejects_noise_whose_mean_square_overflows(tmp_path, capsys):
    sem = dict(sine_chain_cfg(p=2), noise_sd=[1.0, 1e160])
    cfg = write_cfg(tmp_path, "c.json", {"sem": sem, "class": SPLINE5, "oracle_n": 2000, "replicates": 1})
    code, _, err = run(["gap", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "x2" in err
    assert not (tmp_path / "r" / "gap.json").exists()


def test_order_rejects_ragged_csv(tmp_path, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text("x1,x2\n1,2\n3\n4,5\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, "c.json", {"data": str(data), "class": TRIG3})
    code, _, err = run(["order", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "ragged.csv: line 3 has 1 cells, expected 2" in err


def test_linalg_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def boom(cfg, seed, out, self_test):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(cli._COMMANDS, "order", boom)
    cfg = write_cfg(tmp_path, "c.json", {"class": TRIG3})
    code, _, err = run(["order", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 3
    assert "SVD did not converge" in err


def test_manifest_rerun_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"n": 100, "p": 2, "budget": 0.8})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["empnorm", "--config", cfg, "--out", str(out1), "--seed", "4"], capsys)[0] == 0
    assert run(["empnorm", "--config", cfg, "--out", str(out2), "--seed", "4"], capsys)[0] == 0
    assert (out1 / "empnorm.json").read_bytes() == (out2 / "empnorm.json").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_cli_import_loads_no_scipy():
    src = str(Path(semorder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, semorder.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"
