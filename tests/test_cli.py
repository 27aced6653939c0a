import json
import math
import os
import re
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
MISSPEC = {"truth": {"kind": "cubic", "params": [1.0], "noise_sd": 0.3}, "class": TRIG3, "reps": 1, "oracle_n": 2000}


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
    assert set(manifest) == {"command", "config", "outputs", "seed", "version"}


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


def test_negative_seed_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"sem": sine_chain_cfg(), "n": 50})
    code, _, err = run(["simulate", "--config", cfg, "--out", str(tmp_path / "r"), "--seed", "-1"], capsys)
    assert code == 2
    assert err.startswith("error:") and "seed" in err and "-1" in err
    assert not (tmp_path / "r" / "data.csv").exists()


@pytest.mark.parametrize("case", ["data_is_a_directory", "data_not_utf8", "config_not_utf8", "out_is_a_file", "data_missing"])
def test_unreadable_path_is_usage_error(tmp_path, capsys, case):
    good = tmp_path / "good.csv"
    DataMatrix(np.ones((5, 2))).to_csv(good)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("x1,x2\n1.0,2.0\n\u00e9,1.0\n".encode("latin-1"))
    data = {"data_is_a_directory": tmp_path, "data_not_utf8": latin1, "data_missing": tmp_path / "nope.csv"}.get(case, good)
    config = Path(write_cfg(tmp_path, "c.json", {"data": str(data), "class": TRIG3}))
    if case == "config_not_utf8":
        config.write_bytes('{"data": "caf\u00e9.csv"}'.encode("latin-1"))
    out = tmp_path / "r"
    if case == "out_is_a_file":
        out.write_text("", encoding="utf-8")
    named = {"config_not_utf8": config, "out_is_a_file": out}.get(case, data)
    code, _, err = run(["order", "--config", str(config), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and str(named) in err and "Traceback" not in err


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


def test_order_output_independent_of_threads(tmp_path, capsys, cli_child):
    sim_cfg = write_cfg(tmp_path, "sim.json", {"sem": sine_chain_cfg(), "n": 500})
    sim_out = tmp_path / "sim"
    assert run(["simulate", "--config", sim_cfg, "--out", str(sim_out), "--seed", "2"], capsys)[0] == 0
    cfg = write_cfg(tmp_path, "c.json", {"data": str(sim_out / "data.csv"), "class": SPLINE5})
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        cli_child(["order", "--config", cfg, "--out", str(out)], threads)
        outs.append([(out / name).read_bytes() for name in ("order.json", "summary.txt", "manifest.json")])
    assert outs[0] == outs[1]


def test_gap_output_independent_of_threads(tmp_path, cli_child):
    # 20,000 oracle rows fold through several levels of stacked leaf QRs
    cfg = write_cfg(
        tmp_path, "c.json", {"sem": sine_chain_cfg(p=4), "class": SPLINE5, "oracle_n": 20000, "replicates": 2}
    )
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        cli_child(["gap", "--config", cfg, "--out", str(out), "--seed", "3"], threads)
        outs.append((out / "gap.json").read_bytes())
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


def test_misspec_sample_below_capacity_is_degenerate(tmp_path, capsys):
    # 4 points cannot determine 6 cells: the engine's capacity error is a
    # degeneracy of the sample (exit 3), not bad input (exit 2)
    dictionary = {"family": "piecewise-constant", "size": 6, "domain": [-1.0, 1.0]}
    cfg = {
        "truth": {"kind": "cubic", "params": [1.0], "noise_sd": 0.3},
        "class": {"dictionary": dictionary, "intercept": False},
        "n_grid": [4],
        "reps": 1,
        "oracle_n": 2000,
    }
    out = tmp_path / "r"
    code, _, err = run(["misspec", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(out)], capsys)
    assert code == 3
    assert "n=4" in err


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


def test_gap_json_carries_floored_flags_and_reruns_byte_identical(tmp_path, capsys):
    # x2 = x1 up to noise of sd 1e-9: every permutation's score rests on a floored fit
    sem = {
        "p": 2,
        "order": [1, 2],
        "edges": [{"from": 1, "to": 2, "kind": "linear", "params": [1.0]}],
        "noise_sd": [1.0, 1e-9],
    }
    cls = {"dictionary": {"family": "cubic-b-spline", "size": 6, "domain": [-8.0, 8.0]}}
    cfg = write_cfg(tmp_path, "c.json", {"sem": sem, "class": cls, "oracle_n": 2000, "replicates": 2})
    outputs = []
    for name in ("a", "b"):
        code, _, _ = run(["gap", "--config", cfg, "--out", str(tmp_path / name), "--seed", "4"], capsys)
        assert code == 0
        outputs.append((tmp_path / name / "gap.json").read_bytes())
    assert outputs[0] == outputs[1]
    rep = json.loads(outputs[0])
    assert rep["gaps_floored"] == [True, True]
    assert [row["floored"] for row in rep["table"]] == [True, True]


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
    # the benchmark's rates-l1 config, which still passes the retired "restarts"
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
        ("rates", {"case": "case3", "grid": [{"p": 2, "N": 3, "M": 1.0}], "reps": 1}, "grid[0].n"),
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
        ("simulate", {"sem": sine_chain_cfg(p=2), "n": True}, "n must be an integer"),
        ("simulate", {"sem": sine_chain_cfg(p=2), "n": "50"}, "n must be an integer"),
        ("simulate", {"sem": {**sine_chain_cfg(p=2), "noise_sd": [1.0, True]}, "n": 50}, "noise_sd"),
        ("rates", {"case": "case3", "grid": [{"n": "50", "p": 2, "N": 3, "M": 1.0}], "reps": 1}, "'n'"),
        ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {**SPLINE5, "kind": "l1", "budget": True}}, "budget"),
        ("misspec", {**MISSPEC, "n_grid": 5}, "n_grid"),
        ("misspec", {**MISSPEC, "n_grid": ["a"]}, "n_grid"),
        ("misspec", {**MISSPEC, "n_grid": [100.7, 200]}, "n_grid"),
        # checked before the 10**15-row sample, which would exit 2 for memory instead
        ("order", {"sem": sine_chain_cfg(p=2), "n": 10**15, "class": TRIG3, "method": "gredy"}, "method must be"),
    ],
)
def test_bad_numeric_config_entry_is_usage_error(tmp_path, capsys, command, cfg, key):
    path = write_cfg(tmp_path, "c.json", cfg)
    out = tmp_path / "r"
    code, _, err = run([command, "--config", path, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and key in err
    assert not (out / f"{command}.json").exists()


COMBINATION = {"from": 1, "to": 2, "kind": "dictionary-combination", "params": {**TRIG3, "coefficient": [1.0, 0.0, 0.0]}}
RATES = {"case": "case3", "grid": [{"n": 50, "p": 2, "N": 3, "M": 1.0}], "reps": 1}


KEY_FAULTS = {
    "simulate": ("simulate", {"semm": sine_chain_cfg(p=2), "n": 50}, "unknown config key semm; did you mean 'sem'?"),
    "order": ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": TRIG3, "methd": "greedy"}, "unknown config key methd; did you mean 'method'?"),
    "rates": ("rates", {**RATES, "rep": 2}, "unknown config key rep; did you mean 'reps'?"),
    "misspec": ("misspec", {**MISSPEC, "n_grd": [100]}, "unknown config key n_grd; did you mean 'n_grid'?"),
    "gap": ("gap", {"sem": sine_chain_cfg(p=2), "class": SPLINE5, "replicate": 2}, "unknown config key replicate; did you mean 'replicates'?"),
    "empnorm": ("empnorm", {"n": 50, "p": 2, "budgt": 2.0}, "unknown config key budgt; did you mean 'budget'?"),
    "class": ("order", {"sem": sine_chain_cfg(p=2), "n": 50, "class": {**SPLINE5, "kind": "l1", "budgt": 1.0}}, "unknown config key class.budgt; did you mean 'budget'?"),
    "class.dictionary": ("gap", {"sem": sine_chain_cfg(p=2), "class": {"dictionary": {**SPLINE5["dictionary"], "sise": 6}}}, "unknown config key class.dictionary.sise; did you mean 'size'?"),
    "sem": ("simulate", {"sem": {**sine_chain_cfg(p=2), "edge": []}, "n": 50}, "unknown config key sem.edge; did you mean 'edges'?"),
    "sem.edges[i]": ("simulate", {"sem": {**sine_chain_cfg(p=2), "edges": [{"from": 1, "to": 2, "kind": "linear", "prams": [1.0]}]}, "n": 50}, "unknown config key sem.edges[0].prams; did you mean 'params'?"),
    "combination params": ("simulate", {"sem": {**sine_chain_cfg(p=2), "edges": [COMBINATION]}, "n": 50}, "unknown config key sem.edges[0].params.coefficient; did you mean 'coefficients'?"),
    "grid[i]": ("rates", {**RATES, "grid": [{"n": 50, "p": 2, "N": 3, "MM": 1.0}]}, "unknown config key grid[0].MM; did you mean 'M'?"),
    "truth": ("misspec", {**MISSPEC, "n_grid": [100], "truth": {"kind": "cubic", "params": [1.0], "nois": 0.3}}, "unknown config key truth.nois; did you mean 'noise_sd'?"),
    "case4 grid[i] has no M": ("rates", {**RATES, "case": "case4"}, "unknown config key grid[0].M; expected one of n, p, N"),
    "l1_theorem grid[i] has no N": ("rates", {**RATES, "case": "l1_theorem"}, "unknown config key grid[0].N; expected one of n, p, M"),
    "l3_theorem takes no family": ("rates", {**RATES, "case": "l3_theorem", "grid": [{"n": 50, "p": 2}], "family": "trigonometric"}, "unknown config key family; expected one of case, grid, reps, restarts"),
    "order data beside sem": ("order", {"data": "x.csv", "sem": sine_chain_cfg(p=2), "n": 50, "class": TRIG3}, "unknown config key sem; expected one of data, class, method"),
    "order n beside data": ("order", {"data": "x.csv", "n": 50, "class": TRIG3}, "unknown config key n; expected one of data, class, method"),
    "order sem without n": ("order", {"sem": sine_chain_cfg(p=2), "class": TRIG3}, "missing config key n"),
    "order data not a path": ("order", {"data": 5, "class": TRIG3}, "data must be a path string, got 5"),
    "sem not an object": ("gap", {"sem": [], "class": SPLINE5}, "config sem must be an object, got []"),
    "grid not a list": ("rates", {**RATES, "grid": 5}, "grid must be a nonempty list of cells, got 5"),
}


@pytest.mark.parametrize("level", KEY_FAULTS)
def test_config_key_fault_names_its_path(tmp_path, capsys, level):
    # one case per nesting level: a misspelled key exits 2 before any work, naming its full path
    command, cfg, message = KEY_FAULTS[level]
    code, _, err = run([command, "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "r")], capsys)
    assert code == 2 and err == f"error: {message}\n"
    assert not (tmp_path / "r" / "manifest.json").exists()


@pytest.mark.parametrize("command, cfg", [("rates", RATES), ("empnorm", {"n": 50, "p": 2})])
def test_retired_restarts_key_is_ignored(tmp_path, capsys, command, cfg):
    runs = {}
    for name, given in (("plain", cfg), ("restarts", {**cfg, "restarts": 8})):
        out = tmp_path / name
        code, _, err = run([command, "--config", write_cfg(tmp_path, f"{name}.json", given), "--out", str(out)], capsys)
        assert code == 0 and err == ""
        runs[name] = (out / f"{command}.json").read_bytes()
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"] == given
    assert runs["plain"] == runs["restarts"]


def test_readme_configs_run(tmp_path, capsys):
    # every JSON block of README.md: the order example, and each fragment run inside it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(b if b.lstrip().startswith("{") else "{" + b + "}") for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert len(blocks) >= 2 and {"sem", "n", "class"} <= set(blocks[0])
    for i, block in enumerate(blocks):
        cfg = {**blocks[0], **block}
        code, _, err = run(["order", "--config", write_cfg(tmp_path, f"{i}.json", cfg), "--out", str(tmp_path / str(i))], capsys)
        assert code == 0 and err == "", (i, err)


@pytest.mark.parametrize("command", ["misspec", "gap"])
@pytest.mark.parametrize("oracle_n", [-5, 0])
def test_oracle_n_below_one_is_usage_error(tmp_path, capsys, command, oracle_n):
    # read as a size before any sampling, not handed to numpy's seeding or shapes
    cfg = {**MISSPEC, "n_grid": [100]} if command == "misspec" else {"sem": sine_chain_cfg(p=2), "class": SPLINE5}
    path = write_cfg(tmp_path, "c.json", {**cfg, "oracle_n": oracle_n})
    code, _, err = run([command, "--config", path, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert err.startswith("error: oracle_n must be at least 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("n, message", [(10**15, "out of memory"), (10**19, "64-bit")])
def test_oversized_sample_is_usage_error(tmp_path, capsys, n, message):
    # 10**15 rows lie beyond the address space, so the allocation fails at once
    cfg = write_cfg(tmp_path, "c.json", {"sem": sine_chain_cfg(), "n": n})
    out = tmp_path / "r"
    code, _, err = run(["simulate", "--config", cfg, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert not (out / "data.csv").exists()


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
