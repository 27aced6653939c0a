from pathlib import Path

import numpy as np
import pytest

import semorder
from semorder._linalg import RANK_REL_TOL, least_squares
from semorder.dictionary import (
    CUBIC_B_SPLINE,
    PIECEWISE_CONSTANT,
    TRIGONOMETRIC,
    Dictionary,
    basis_matrix,
    design_matrix,
)
from semorder.errors import CapacityError, DegeneracyError, UsageError
from semorder.regress import (
    ClassSpec,
    ConditionalFits,
    MisspecTruth,
    fit_l1,
    fit_over_subsets,
    fit_span,
    kkt_residual,
    misspec_experiment,
    population_projection,
)
from semorder.semgen import DataMatrix, EdgeFunction, SemSpec, sample

import oracles


def test_fit_span_intercept_only():
    y = np.array([1.0, 2.0, 4.0, 9.0])
    res = fit_span(np.ones((4, 1)), y)
    assert abs(res.coefficients[0] - y.mean()) <= 1e-14
    assert abs(res.residual_variance - np.var(y)) <= 1e-14


def test_fit_span_interpolation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 4))
    beta = rng.standard_normal(4)
    y = x @ beta
    res = fit_span(x, y)
    assert res.residual_variance <= 1e-16 * np.mean(y * y)


def test_fit_span_matches_normal_equations():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.standard_normal(50)
    res = fit_span(x, y)
    assert np.max(np.abs(res.coefficients - oracles.normal_equations(x, y))) <= 1e-8


def test_fit_span_residual_orthogonality():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((80, 5))
    y = rng.standard_normal(80)
    res = fit_span(x, y)
    resid = y - x @ res.coefficients
    inner = np.abs(x.T @ resid) / 80
    col_norms = np.sqrt(np.mean(x * x, axis=0))
    assert np.all(inner <= 1e-8 * np.sqrt(np.mean(y * y)) * col_norms + 1e-14)


def test_fit_span_rank_deficient_min_norm():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((40, 2))
    x = np.hstack([base, base[:, :1] + base[:, 1:]])  # third column dependent
    y = rng.standard_normal(40)
    res = fit_span(x, y)
    assert res.degenerate
    # minimum-norm solution is orthogonal to the null space direction (1,1,-1)
    assert abs(res.coefficients @ np.array([1.0, 1.0, -1.0])) <= 1e-8


def _all_conditional_fits(values, class_spec):
    """(design, response) of every fit of one column on a nonempty set of the others."""
    p = values.shape[1]
    for v in range(p):
        others = [k for k in range(p) if k != v]
        for mask in range(1, 1 << len(others)):
            cols = [values[:, k] for i, k in enumerate(others) if mask >> i & 1]
            yield design_matrix(class_spec.dictionary, cols, intercept=class_spec.intercept), values[:, v]


def test_fit_span_matches_svd_reference():
    # Rank must agree with the explicit-SVD reference everywhere.  sigma^2 must
    # agree within 1e-12 relative on well-conditioned designs, and within 1e-8
    # on two n=60 samples of the demo chain whose designs keep singular values
    # down to 1e-10 of the largest, next to the 1e-10 rank cutoff.
    chain = SemSpec(
        p=4, order=(0, 1, 2, 3),
        edges={(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(3)},
        noise_sd=(1.0, 0.3, 0.3, 0.3),
    )
    weak = SemSpec(
        p=3, order=(0, 1, 2),
        edges={(j, j + 1): EdgeFunction("sine", (1.0, 1.0)) for j in range(2)},
        noise_sd=(1.0, 0.9, 0.9),
    )
    values = sample(chain, 300, seed=5).values
    families = [(CUBIC_B_SPLINE, 6), (PIECEWISE_CONSTANT, 5), (TRIGONOMETRIC, 3)]
    cases = [
        (values, ClassSpec(Dictionary(kind, size, (-5.0, 5.0)), intercept=icpt), 1e-12)
        for kind, size in families
        for icpt in (True, False)
    ]
    spline = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))
    cases += [(sample(weak, 60, (10, 60, rep)).values, spline, 1e-8) for rep in (12, 19)]
    count = 0
    for values, class_spec, tol in cases:
        for x, y in _all_conditional_fits(values, class_spec):
            res = fit_span(x, y)
            beta, rank = oracles.svd_lstsq(x, y)
            resid = y - x @ beta
            ref = float(resid @ resid) / x.shape[0]
            assert res.rank == rank
            assert abs(res.residual_variance - ref) <= tol * ref
            count += 1
    assert count == 6 * 28 + 2 * 9


def _counting_lstsq(monkeypatch):
    """Patch ``np.linalg.lstsq`` to count its calls; returns the one-entry counter."""
    calls = [0]
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls[0] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_least_squares_certifies_only_well_conditioned_designs(monkeypatch):
    calls = _counting_lstsq(monkeypatch)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((80, 5))
    y = x @ rng.standard_normal(5) + 0.1 * rng.standard_normal(80)
    beta, rank = least_squares(x, y)
    ref, _, ref_rank, _ = np.linalg.lstsq(x, y, rcond=RANK_REL_TOL)
    assert calls[0] == 1 and rank == ref_rank == 5  # the reference's own call
    assert np.max(np.abs(beta - ref)) <= 1e-12 * np.max(np.abs(ref))
    # full rank, but cond(x) is about 1e7 > 1e5: the certificate fails
    x[:, 4] = x[:, 3] + 1e-7 * rng.standard_normal(80)
    assert least_squares(x, y)[1] == 5 and calls[0] == 2
    # rank-deficient: the Cholesky factorization itself fails or is refused
    x[:, 4] = x[:, 3]
    assert least_squares(x, y)[1] == 4 and calls[0] == 3


def test_least_squares_solvers_live_in_linalg():
    # every least-squares solve and Cholesky factorization goes through the
    # one certified policy in _linalg
    package = Path(semorder.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        text = path.read_text(encoding="utf-8")
        for name in ("np.linalg.lstsq", "np.linalg.cholesky"):
            assert name not in text, f"{path.name} calls {name}"


def _span_dimension(class_spec, k):
    dictionary = class_spec.dictionary
    if k and dictionary.family != TRIGONOMETRIC:
        return k * (dictionary.size - 1) + 1
    return int(class_spec.intercept) + k * dictionary.size


def test_engine_matches_svd_reference_on_full_design(monkeypatch):
    # The engine fits on reduced blocks; the reference is the explicit SVD of
    # the full class design.  Rank and both flags must agree everywhere, and
    # every fit must take the certified Cholesky path, with sigma^2 within
    # 1e-12 relative.
    calls = _counting_lstsq(monkeypatch)
    chain = SemSpec(
        p=4, order=(0, 1, 2, 3),
        edges={(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(3)},
        noise_sd=(1.0, 0.3, 0.3, 0.3),
    )
    values = sample(chain, 300, seed=5).values
    # the chain stays inside (-3.5, 3.5), so 10 cells on (-5, 5) leave the
    # outer ones empty
    families = [(CUBIC_B_SPLINE, 6), (PIECEWISE_CONSTANT, 5), (PIECEWISE_CONSTANT, 10), (TRIGONOMETRIC, 3)]
    assert not np.any(np.abs(values) >= 3.5)
    certified = 0
    for kind, size in families:
        for icpt in (True, False):
            class_spec = ClassSpec(Dictionary(kind, size, (-5.0, 5.0)), intercept=icpt)
            fits = ConditionalFits(values, class_spec)
            for v in range(4):
                others = [k for k in range(4) if k != v]
                y = values[:, v]
                floor = max(1e-12 * float(np.mean(y * y)), np.finfo(np.float64).tiny)
                for sub in range(1, 1 << 3):
                    cols = [k for i, k in enumerate(others) if sub >> i & 1]
                    mask = fits.predictor_mask(v, cols)
                    before = calls[0]
                    fit = fits.fit(v, mask)
                    _, floored, degenerate = fits.sigma(v, mask)
                    x = design_matrix(class_spec.dictionary, [values[:, k] for k in cols], intercept=icpt)
                    beta, rank = oracles.svd_lstsq(x, y)
                    resid = y - x @ beta
                    ref = float(resid @ resid) / x.shape[0]
                    assert fit.rank == rank
                    assert degenerate == (rank < _span_dimension(class_spec, len(cols)))
                    assert floored == (ref < floor)
                    if calls[0] == before:
                        certified += 1
                        assert abs(fit.residual_variance - ref) <= 1e-12 * ref
    # every fit, with or without an intercept: 8 classes * 28 fits
    assert certified == 8 * 28


def test_sigma_table_builds_without_lstsq(monkeypatch):
    # on a well-conditioned chain every fit takes the certified Cholesky path
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    chain = SemSpec(
        p=5, order=(0, 1, 2, 3, 4),
        edges={(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(4)},
        noise_sd=(1.0, 0.3, 0.3, 0.3, 0.3),
    )
    fits = ConditionalFits(sample(chain, 500, seed=7).values, ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0))))
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for v in range(5):
        for mask in range(1 << 5):
            if not mask >> v & 1:
                fits.sigma(v, mask)
    assert len(fits._memo) == 5 * 2 ** 4


def test_fit_span_empty_rejected():
    with pytest.raises(UsageError):
        fit_span(np.ones((0, 1)), np.zeros(0))


def test_fit_l1_zero_budget():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    res = fit_l1(x, y, budget=0.0)
    assert np.array_equal(res.coefficients, np.zeros(3))
    assert abs(res.residual_variance - np.mean(y * y)) <= 1e-12
    # with a free intercept only the penalized block is forced to zero
    xi = np.hstack([np.ones((60, 1)), x])
    res_i = fit_l1(xi, y + 5.0, budget=0.0, intercept=True)
    assert np.array_equal(res_i.coefficients[1:], np.zeros(3))
    # the free intercept is the mean of the response, to rounding
    assert abs(res_i.coefficients[0] - (y + 5.0).mean()) <= 1e-8


def test_fit_l1_inactive_budget_matches_span():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((70, 4))
    y = x @ np.array([2.0, -1.0, 0.0, 0.5]) + 0.2 * rng.standard_normal(70)
    ols = fit_span(x, y)
    res = fit_l1(x, y, budget=10.0 * np.abs(ols.coefficients).sum())
    assert np.max(np.abs(res.coefficients - ols.coefficients)) <= 1e-6


def test_fit_l1_boundary_solution():
    # single feature with unit empirical norm and positive correlation c; any
    # budget below c pins the coefficient at the boundary
    rng = np.random.default_rng(6)
    x = rng.standard_normal(100)
    x = (x / np.sqrt(np.mean(x * x)))[:, None]
    y = 0.8 * x[:, 0] + 0.1 * rng.standard_normal(100)
    c = float(np.mean(x[:, 0] * y))
    budget = 0.5 * c
    res = fit_l1(x, y, budget=budget)
    assert abs(res.coefficients[0] - budget) <= 1e-8


def test_fit_l1_kkt_certificates():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(30, 90))
        d = int(rng.integers(2, 7))
        x = rng.standard_normal((n, d))
        y = x @ rng.standard_normal(d) + 0.4 * rng.standard_normal(n)
        budget = float(rng.uniform(0.05, 3.0))
        res = fit_l1(x, y, budget=budget, tol=1e-8)
        assert res.converged
        assert res.kkt_residual <= 1e-8
        assert kkt_residual(x, y, res.coefficients, budget) <= 1e-8
        assert np.abs(res.coefficients).sum() <= budget + 1e-10


def test_fit_l1_budget_below_rounding_converges():
    # a budget below the rounding unit of the coefficients pins them at 0,
    # leaving only the free intercept to solve
    rng = np.random.default_rng(10)
    x = np.hstack([np.ones((60, 1)), rng.standard_normal((60, 3))])
    y = x[:, 1] + 0.5 + 0.1 * rng.standard_normal(60)
    res = fit_l1(x, y, budget=1e-300, intercept=True, max_iter=200)
    assert res.converged
    assert np.abs(res.coefficients[1:]).sum() <= 1e-300
    assert abs(res.coefficients[0] - y.mean()) <= 1e-8


def test_fit_l1_sigma_monotone_in_budget():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 4))
    y = rng.standard_normal(60)
    rvs = [fit_l1(x, y, budget=m).residual_variance for m in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)]
    assert all(a >= b - 1e-8 for a, b in zip(rvs, rvs[1:]))


def test_fit_l1_nonconvergence_warns():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 5))
    y = rng.standard_normal(50)
    with pytest.warns(RuntimeWarning):
        res = fit_l1(x, y, budget=0.7, tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.kkt_residual > 1e-14


def _l1_oracle_designs(rng):
    """Random (design without intercept column, response) pairs of at most 6 columns.

    Gaussian columns, and partition-of-unity blocks: one spline block, two
    piecewise-constant blocks, or a spline and a piecewise-constant block.
    Two blocks are collinear, since each sums to 1; centering, as an
    intercept does, makes every block collinear.
    """
    z = rng.standard_normal((int(rng.integers(40, 120)), 2))
    kind = rng.integers(4)
    if kind == 0:
        d = int(rng.integers(1, 7))
        x = rng.standard_normal((z.shape[0], d)) * rng.uniform(0.5, 2.0, d)
    elif kind == 1:
        x = basis_matrix(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0)), z[:, 0])
    else:
        pair = [(PIECEWISE_CONSTANT, 3)] * 2 if kind == 2 else [(CUBIC_B_SPLINE, 4), (PIECEWISE_CONSTANT, 2)]
        x = np.hstack([basis_matrix(Dictionary(f, m, (-4.0, 4.0)), z[:, k]) for k, (f, m) in enumerate(pair)])
    y = np.sin(1.5 * z[:, 0]) + 0.5 * z[:, 1] + 0.3 * rng.standard_normal(z.shape[0])
    return x, y


def test_fit_l1_matches_sign_face_enumeration():
    # sigma^2 of the homotopy against an independent exact minimum, with and
    # without an intercept, budgets from deep inside to beyond least squares
    rng = np.random.default_rng(23)
    worst = 0.0
    for i in range(300):
        x, y = _l1_oracle_designs(rng)
        n = x.shape[0]
        icpt = i % 2 == 0
        xc, yc = (x - x.mean(axis=0), y - y.mean()) if icpt else (x, y)
        scale = np.abs(np.linalg.lstsq(xc, yc, rcond=None)[0]).sum()
        budget = float(scale * 10 ** rng.uniform(-1.5, 0.3))
        v = oracles.l1_enumerate(xc.T @ xc / n, xc.T @ yc / n, budget)
        ref = float(np.mean((yc - xc @ v) ** 2))
        design = np.column_stack([np.ones(n), x]) if icpt else x
        fit = fit_l1(design, y, budget, tol=1e-12, intercept=icpt)
        assert fit.converged and fit.kkt_residual <= 1e-12
        worst = max(worst, abs(fit.residual_variance - ref) / ref)
    assert worst <= 1e-12


def test_population_projection_identity():
    c = np.array([0.3, -1.0, 2.0])
    out = population_projection(np.eye(3), c)
    assert np.allclose(out.coefficients, c, atol=1e-14)


def test_population_projection_scalar():
    out = population_projection(np.array([[4.0]]), np.array([2.0]))
    assert abs(out.coefficients[0] - 0.5) <= 1e-14


def test_population_projection_round_trip():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 4.0 * np.eye(4)
    beta = rng.standard_normal(4)
    out = population_projection(sigma, sigma @ beta)
    assert np.max(np.abs(out.coefficients - beta)) <= 1e-10
    assert not out.degenerate


def test_population_projection_rejects_asymmetry():
    with pytest.raises(UsageError):
        population_projection(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_population_projection_singular_flagged():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = population_projection(sigma, np.array([1.0, 1.0]))
    assert out.degenerate
    # minimum-norm solution splits the weight evenly
    assert np.allclose(out.coefficients, [0.5, 0.5], atol=1e-10)


def trig_class(size=3, domain=(-1.0, 1.0), intercept=True):
    return ClassSpec(Dictionary(TRIGONOMETRIC, size, domain), kind="span", intercept=intercept)


def test_fit_over_subsets_matches_individual_fits():
    # ClassSpec.fit keeps the engine's columns, so the two agree bit for bit,
    # empty cells (the outer ones of N=10 on (-5, 5)) and no intercept included
    rng = np.random.default_rng(11)
    data = DataMatrix(rng.standard_normal((200, 3)))
    dictionaries = [
        Dictionary(CUBIC_B_SPLINE, 6, (-2.0, 2.0)),
        Dictionary(PIECEWISE_CONSTANT, 5, (-2.0, 2.0)),
        Dictionary(PIECEWISE_CONSTANT, 10, (-5.0, 5.0)),
        Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0)),
    ]
    for dictionary in dictionaries:
        for intercept in (True, False):
            cls = ClassSpec(dictionary, intercept=intercept)
            out = fit_over_subsets(data, 2, cls, [(), (0,), (1,), (0, 1)])
            assert set(out) == {(), (0,), (1,), (0, 1)}
            for key, res in out.items():
                direct = cls.fit([data.values[:, k] for k in key], data.values[:, 2])
                assert res.residual_variance == direct.residual_variance
                assert np.array_equal(res.coefficients, direct.coefficients)
                assert (res.rank, res.degenerate) == (direct.rank, direct.degenerate)


def test_fit_over_subsets_empty_is_intercept_only():
    rng = np.random.default_rng(12)
    data = DataMatrix(rng.standard_normal((50, 2)))
    out = fit_over_subsets(data, 1, trig_class(), [()])
    y = data.values[:, 1]
    assert abs(out[()].residual_variance - np.var(y)) <= 1e-12


def test_fit_over_subsets_nested_monotonicity():
    rng = np.random.default_rng(13)
    data = DataMatrix(rng.standard_normal((300, 4)))
    out = fit_over_subsets(data, 3, trig_class(), [(), (0,), (0, 1), (0, 1, 2)])
    rvs = [out[k].residual_variance for k in [(), (0,), (0, 1), (0, 1, 2)]]
    assert all(a >= b - 1e-10 for a, b in zip(rvs, rvs[1:]))


def test_fit_over_subsets_validation():
    rng = np.random.default_rng(14)
    data = DataMatrix(rng.standard_normal((20, 3)))
    with pytest.raises(UsageError):
        fit_over_subsets(data, 2, trig_class(), [(2,)])  # response in subset
    small = DataMatrix(rng.standard_normal((6, 3)))
    with pytest.raises(CapacityError):
        fit_over_subsets(small, 2, trig_class(), [(0, 1)])  # 2*3+1 > 6


def test_fit_result_round_trip():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    res = fit_span(x, y)
    resid = y - x @ res.coefficients
    assert abs(res.residual_variance - np.mean(resid * resid)) <= 1e-10 * max(res.residual_variance, 1.0)


def cubic_truth(noise_sd=0.3):
    return MisspecTruth(mean=lambda x: x**3, noise_sd=noise_sd, label="cubic")


def test_misspec_in_span_truth_parametric_rate():
    # truth inside the class span: plain parametric n^{-1/2} decay
    d = Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))
    coefs = np.array([1.0, -0.5, 0.25])
    truth = MisspecTruth(
        mean=lambda x, d=d, c=coefs: np.stack([c[r] * np.cos((r + 1) * np.pi * (x + 1.0) / 2.0) for r in range(3)]).sum(axis=0),
        noise_sd=0.5,
        label="in-span",
    )
    rep = misspec_experiment(truth, trig_class(), n_grid=[2**k for k in range(8, 14)], reps=50, oracle_n=150_000, seed=17)
    assert -0.6 <= rep.slope <= -0.4


def test_misspec_cubic_truth_rate_and_ratio():
    rep = misspec_experiment(
        cubic_truth(), trig_class(), n_grid=[2**k for k in range(8, 14)], reps=50, oracle_n=150_000, seed=18
    )
    assert -0.65 <= rep.slope <= -0.35
    ratios = [c["ratio_to_delta_n"] for c in rep.cells]
    assert max(ratios) / min(ratios) <= 4.0


def test_misspec_l1_class_converges_to_the_l1_projection():
    # budget 1 binds (the unconstrained projection has l1 norm 2.9), so the
    # fits converge to the l1-constrained projection, not the unconstrained one
    cls = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-1.0, 1.0)), kind="l1", budget=1.0, intercept=False)
    rep = misspec_experiment(cubic_truth(), cls, n_grid=[256, 1024, 4096, 16384], reps=4, oracle_n=50_000, seed=0)
    assert np.abs(rep.beta_star).sum() <= 1.0 * (1.0 + 1e-12)
    assert rep.slope < -0.25


def test_misspec_oracle_cell_collapses():
    # the cell that re-draws the oracle sample fits the projection exactly
    rep = misspec_experiment(cubic_truth(), trig_class(), n_grid=[4096], reps=1, oracle_n=4096, seed=19)
    assert rep.cells[0]["mean_dist"] <= 1e-6


def test_misspec_refuses_a_sample_that_misses_a_cell():
    # 4 points cannot reach 6 cells, so the fit has fewer columns than the oracle's
    cls = ClassSpec(Dictionary(PIECEWISE_CONSTANT, 6, (-1.0, 1.0)), intercept=False)
    with pytest.raises(DegeneracyError, match="n=4"):
        misspec_experiment(cubic_truth(), cls, n_grid=[4], reps=1, oracle_n=2000, seed=0)


def test_misspec_report_shape():
    rep = misspec_experiment(cubic_truth(), trig_class(), n_grid=[256, 512], reps=3, oracle_n=20_000, seed=20)
    assert {"mean_dist", "q90", "mean_variance_gap", "q90_variance_gap", "delta_n", "ratio_to_delta_n"} <= set(rep.cells[0])
    header, rows = rep.csv_rows()
    assert header == ["n", "rep", "metric", "value"]
    assert len(rows) == 2 * 2 * 3  # two metrics per (n, rep)
    assert {r[2] for r in rows} == {"coef_distance", "variance_gap"}


def test_projection_moment_convergence():
    # projection coefficients from moments of n and 4n samples drift at root-n scale
    d = Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))
    cls = trig_class()
    rng = np.random.default_rng(21)

    def beta_of(n):
        x = rng.uniform(-1.0, 1.0, n)
        y = x**3 + 0.3 * rng.standard_normal(n)
        psi = cls.design([x])
        return population_projection(psi.T @ psi / n, psi.T @ y / n).coefficients

    n = 20_000
    drift = np.max(np.abs(beta_of(n) - beta_of(4 * n)))
    assert drift <= 20.0 / np.sqrt(n)


def test_class_spec_validation():
    d = Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))
    with pytest.raises(UsageError):
        ClassSpec(d, kind="l1")  # missing budget
    with pytest.raises(UsageError):
        ClassSpec(d, kind="span", budget=1.0)
    with pytest.raises(UsageError):
        ClassSpec(d, kind="ridge")
    cls = ClassSpec(d, kind="l1", budget=0.5)
    assert cls.total_budget(3) == 1.5
    assert ClassSpec.from_config(cls.to_config()) == cls
