"""End-to-end acceptance suite.

Each test covers one release criterion, prints a single PASS/FAIL line, and
then asserts.  The suite is deterministic: every random quantity is drawn
from a fixed seed.
"""

import json
import math
import time

import numpy as np
import pytest

from semorder import cli
from semorder.dictionary import CUBIC_B_SPLINE, TRIGONOMETRIC, Dictionary
from semorder.empproc import (
    MomentPair,
    delta_n,
    entropy_bound_l1,
    rademacher_diagnostic,
    rate_experiment,
    z_sup_ellipsoid,
    z_sup_l1,
)
from semorder.order import consistency_experiment, estimate_order_exact
from semorder.regress import ClassSpec, ConditionalFits, MisspecTruth, fit_l1, fit_span, misspec_experiment
from semorder.semgen import EdgeFunction, SemSpec, identifiability_gap

import oracles


def report(k: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'}")


def trig_class(size=3, domain=(-1.0, 1.0)):
    return ClassSpec(Dictionary(TRIGONOMETRIC, size, domain))


def spline_class(size, domain):
    return ClassSpec(Dictionary(CUBIC_B_SPLINE, size, domain))


def test_01_exact_search_matches_enumeration():
    rng = np.random.default_rng(1001)
    cs = trig_class()
    start = time.monotonic()
    mismatches = 0
    worst = 0.0
    for i in range(100):
        p = 3 + i % 4
        data = rng.standard_normal((200, p)) * rng.uniform(0.5, 2.0, p)
        if i % 3 == 0:
            # inject dependence so the minimizer is not a pure tie
            mix = rng.standard_normal((p, p)) * 0.4 + np.eye(p)
            data = data @ mix
        est = estimate_order_exact(data, cs)
        # bit for bit against enumeration over the engine's own sigma table
        fits = ConditionalFits(data, cs)
        table = lambda v, mask: fits.sigma(v, mask)[0]  # noqa: E731
        ref_score, ref_pi = oracles.enumerate_sigmas(p, table)
        # the same order as enumeration over independent full-design fits
        direct = oracles.direct_sigma(data, cs)
        if est.score != ref_score or tuple(est.order) != ref_pi or oracles.enumerate_sigmas(p, direct)[1] != ref_pi:
            mismatches += 1
        worst = max(worst, oracles.sigma_table_gap(p, table, direct))
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and worst <= 1e-12 and elapsed < 60.0
    report(1, "exact search equals enumeration on 100 datasets", ok)
    assert mismatches == 0, f"{mismatches} of 100 datasets disagreed with enumeration"
    assert worst <= 1e-12, f"sigma^2 differs from the full-design fit by {worst:.2e} relative"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"


def test_02_ellipsoid_supremum_dominates_direction_scan():
    rng = np.random.default_rng(1002)
    worst_gap = 0.0
    worst_attain = 0.0
    worst_congruence = 0.0
    for i in range(100):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T / 3.0 + np.eye(3)
        delta = rng.standard_normal((3, 3)) * rng.uniform(0.05, 0.5)
        delta = (delta + delta.T) / 2.0
        mp = MomentPair(sigma + delta, sigma)
        z, direction = z_sup_ellipsoid(mp, return_direction=True)
        scan, _ = oracles.scan_quadratic_ellipsoid(delta, sigma, n_dirs=100_000, seed=2000 + i)
        worst_gap = max(worst_gap, scan - z)
        attained = abs(direction @ (delta @ direction)) / (direction @ (sigma @ direction))
        worst_attain = max(worst_attain, abs(attained - z))
        t = rng.standard_normal((3, 3))
        while abs(np.linalg.det(t)) < 0.1:
            t = rng.standard_normal((3, 3))
        z_t = z_sup_ellipsoid(MomentPair(t.T @ mp.sigma_hat @ t, t.T @ sigma @ t))
        worst_congruence = max(worst_congruence, abs(z_t - z))
    ok = worst_gap <= 1e-9 and worst_attain <= 1e-6 and worst_congruence <= 1e-8
    report(2, "ellipsoid supremum dominant, attained, congruence invariant", ok)
    assert worst_gap <= 1e-9, f"a scanned direction beat the closed form by {worst_gap:.2e}"
    assert worst_attain <= 1e-6, f"eigenvector direction off by {worst_attain:.2e}"
    assert worst_congruence <= 1e-8, f"congruence drift {worst_congruence:.2e}"


def test_03_norm_gap_rate_has_root_n_slope():
    grid = [{"n": 2**k, "p": 5, "N": 3} for k in range(8, 15)]
    start = time.monotonic()
    rep = rate_experiment("case4", grid, reps=50, seed=0)
    elapsed = time.monotonic() - start
    slope = rep.slopes[0]["slope"]
    ok = -0.6 <= slope <= -0.4 and elapsed < 300.0
    report(3, "norm-gap Monte-Carlo slope near -1/2", ok)
    assert -0.6 <= slope <= -0.4, f"slope {slope:.4f} outside [-0.6, -0.4]"
    assert elapsed < 300.0, f"took {elapsed:.1f}s, limit 300s"


def test_04_misspecified_fit_tracks_plugin_rate():
    truth = MisspecTruth(mean=EdgeFunction("cubic", (1.0,)), noise_sd=0.3, label="cubic")
    rep = misspec_experiment(
        truth=truth,
        class_spec=trig_class(),
        n_grid=[2**k for k in range(8, 14)],
        reps=50,
        oracle_n=150_000,
        seed=18,
    )
    ratios = [c["ratio_to_delta_n"] for c in rep.cells]
    spread = max(ratios) / min(ratios)
    ok = -0.65 <= rep.slope <= -0.35 and spread <= 4.0
    report(4, "misspecified least squares converges at the plug-in rate", ok)
    assert -0.65 <= rep.slope <= -0.35, f"slope {rep.slope:.4f} outside [-0.65, -0.35]"
    assert spread <= 4.0, f"ratio to the rate drifted by a factor {spread:.2f}"


def test_05_order_recovery_improves_with_sample_size():
    edges = {(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(3)}
    spec = SemSpec(p=4, order=(0, 1, 2, 3), edges=edges, noise_sd=(1.0, 0.3, 0.3, 0.3))
    cs = spline_class(6, (-5.0, 5.0))
    start = time.monotonic()
    rep = consistency_experiment(spec, cs, [500, 1500, 5000], reps=100, seed=33)
    elapsed = time.monotonic() - start
    freqs = [row["frequency"] for row in rep.rows]
    monotone = all(
        freqs[k + 1] >= freqs[k] - 2.0 * math.sqrt(freqs[k] * (1.0 - freqs[k]) / 100.0)
        for k in range(2)
    )
    ok = freqs[-1] >= 0.9 and monotone and elapsed < 600.0
    report(5, "recovery frequency reaches 0.9 and does not decay", ok)
    assert freqs[-1] >= 0.9, f"frequency at n=5000 is {freqs[-1]:.2f}"
    assert monotone, f"frequencies {freqs} decrease beyond binomial noise"
    assert elapsed < 600.0, f"took {elapsed:.1f}s, limit 600s"


def test_06_identifiability_gap_separates_model_families():
    linear = SemSpec(
        p=2,
        order=(0, 1),
        edges={(0, 1): EdgeFunction("linear", (1.0,))},
        noise_sd=(1.0, 1.0),
    )
    cs_wide = spline_class(6, (-12.0, 12.0))
    gaps = [
        identifiability_gap(linear, cs_wide, oracle_n=200_000, seed=(77, r)).gap
        for r in range(8)
    ]
    lin_mean = float(np.mean(gaps))
    lin_se = float(np.std(gaps, ddof=1) / math.sqrt(len(gaps)))
    sine = SemSpec(
        p=2,
        order=(0, 1),
        edges={(0, 1): EdgeFunction("sine", (2.0, 1.0))},
        noise_sd=(1.0, 0.3),
    )
    sine_gaps = [
        identifiability_gap(sine, spline_class(6, (-5.0, 5.0)), oracle_n=200_000, seed=(78, r)).gap
        for r in range(4)
    ]
    sine_mean = float(np.mean(sine_gaps))
    sine_se = float(np.std(sine_gaps, ddof=1) / math.sqrt(len(sine_gaps)))
    ok = abs(lin_mean) <= 3.0 * lin_se and sine_mean > 3.0 * sine_se
    report(6, "gap vanishes for the unidentifiable family and not otherwise", ok)
    assert abs(lin_mean) <= 3.0 * lin_se, f"linear gap {lin_mean:.2e} exceeds 3 x {lin_se:.2e}"
    assert sine_mean > 3.0 * sine_se, f"sine gap {sine_mean:.4f} vs noise {sine_se:.2e}"


def test_07_symmetrization_inequality_holds():
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    chol = np.linalg.cholesky(cov)

    def sampler(rng):
        return rng.standard_normal((200, 2)) @ chol.T

    out = rademacher_diagnostic(sampler, MomentPair(cov, cov), reps=200, seed=11)
    combined = math.sqrt(out.z_se**2 + 4.0 * out.z_eps_se**2)
    bound = 2.0 * out.z_eps_mean + 3.0 * combined
    ok = out.z_mean <= bound
    report(7, "norm gap bounded by twice its symmetrized mean", ok)
    assert out.z_mean <= bound, f"Z mean {out.z_mean:.4f} exceeds {bound:.4f}"


def test_08_constrained_fits_satisfy_stationarity():
    rng = np.random.default_rng(5)
    worst_kkt = 0.0
    worst_span_err = 0.0
    for _ in range(200):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(2, 9))
        x = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d)
        beta = rng.standard_normal(d) * (rng.random(d) < 0.6)
        y = x @ beta + 0.5 * rng.standard_normal(n)
        ols = fit_span(np.column_stack([np.ones(n), x]), y)
        budget = float(rng.uniform(0.1, 1.5)) * max(float(np.abs(ols.coefficients[1:]).sum()), 0.1)
        fit = fit_l1(np.column_stack([np.ones(n), x]), y, budget, tol=1e-6, intercept=True)
        worst_kkt = max(worst_kkt, fit.kkt_residual)
        loose = fit_l1(np.column_stack([np.ones(n), x]), y, 1e6, tol=1e-10, intercept=True)
        worst_span_err = max(worst_span_err, float(np.max(np.abs(loose.coefficients - ols.coefficients))))
    ok = worst_kkt <= 1e-6 and worst_span_err <= 1e-6
    report(8, "constrained fits pass stationarity and relax to least squares", ok)
    assert worst_kkt <= 1e-6, f"worst stationarity residual {worst_kkt:.2e}"
    assert worst_span_err <= 1e-6, f"loose-budget fit off least squares by {worst_span_err:.2e}"


def test_09_closed_form_rate_quantities():
    ent = entropy_bound_l1(1.0, 2, 2, 1.0, 1.0)
    ent_ok = abs(ent - (1.0 + 8.0 * math.log(4.0) ** 2)) <= 1e-10
    dn = delta_n(1.0, 1.0, 4, 1000, 1.0)
    dn_ok = abs(dn * dn - 8.0 * math.log(4.0) / 1000.0) <= 1e-12
    rng = np.random.default_rng(1009)
    dominated = True
    for _ in range(100):
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d))
        sigma = a @ a.T / d + np.eye(d)
        delta = rng.standard_normal((d, d)) * 0.2
        delta = (delta + delta.T) / 2.0
        mp = MomentPair(sigma + delta, sigma)
        budget = float(rng.uniform(0.2, 3.0))
        if z_sup_l1(mp, budget) > z_sup_ellipsoid(mp) + 1e-8:
            dominated = False
    ok = ent_ok and dn_ok and dominated
    report(9, "entropy and rate formulas match closed forms", ok)
    assert ent_ok, f"entropy bound {ent!r} off its closed form"
    assert dn_ok, f"rate {dn!r} off its closed form"
    assert dominated, "a budget-constrained supremum exceeded the ellipsoid value"


def test_10_pipeline_reruns_byte_identical(tmp_path, capsys, cli_child):
    sem = {
        "p": 3,
        "order": [1, 2, 3],
        "edges": [
            {"from": 1, "to": 2, "kind": "sine", "params": [2.0, 1.5]},
            {"from": 2, "to": 3, "kind": "sine", "params": [2.0, 1.5]},
        ],
        "noise_sd": [1.0, 0.3, 0.3],
    }
    cls = {"dictionary": {"family": "cubic-b-spline", "size": 6, "domain": [-5.0, 5.0]}}
    blobs = []
    for tag, threads in (("a", 1), ("b", 2)):
        sim_cfg = tmp_path / f"sim_{tag}.json"
        sim_cfg.write_text(json.dumps({"sem": sem, "n": 800}), encoding="utf-8")
        sim_out = tmp_path / f"sim_out_{tag}"
        assert cli.main(["simulate", "--config", str(sim_cfg), "--out", str(sim_out), "--seed", "42"]) == 0
        ord_cfg = tmp_path / f"ord_{tag}.json"
        ord_cfg.write_text(
            json.dumps({"data": str(sim_out / "data.csv"), "class": cls}), encoding="utf-8"
        )
        ord_out = tmp_path / f"ord_out_{tag}"
        cli_child(["order", "--config", str(ord_cfg), "--out", str(ord_out)], threads)
        blobs.append((ord_out / "order.json").read_bytes())
        capsys.readouterr()
    ok = blobs[0] == blobs[1]
    report(10, "simulate-then-order rerun is byte identical across BLAS threads", ok)
    assert ok, "order.json differed between reruns"
