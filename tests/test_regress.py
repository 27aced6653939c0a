import gc
import inspect
import math
import re
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import semorder
from semorder import regress
from semorder._linalg import (
    FOLD_CELLS,
    RANK_REL_TOL,
    Factor,
    Factors,
    extend,
    factorize,
    least_squares,
    row_compress,
)
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


def _counting(monkeypatch, module, name):
    """Patch ``module.name`` to count its calls; returns the one-entry counter."""
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_lstsq(monkeypatch):
    """Patch ``np.linalg.lstsq`` to count its calls; returns the one-entry counter."""
    return _counting(monkeypatch, np.linalg, "lstsq")


def test_least_squares_certifies_only_well_conditioned_designs(monkeypatch):
    calls = _counting_lstsq(monkeypatch)

    def same_with_factor(x, y, beta, rank):
        # a factor of the same x gives the same solve, bit for bit; the factor
        # step itself never calls lstsq, a refused factor's solve calls it once
        before = calls[0]
        factor = factorize(x)
        assert calls[0] == before
        shared = least_squares(x, y, factor)
        assert np.array_equal(shared[0], beta) and shared[1] == rank
        assert calls[0] == before + (factor.inv is None)
        calls[0] = before
        return factor

    rng = np.random.default_rng(16)
    x = rng.standard_normal((80, 5))
    y = x @ rng.standard_normal(5) + 0.1 * rng.standard_normal(80)
    beta, rank = least_squares(x, y)
    ref, _, ref_rank, _ = np.linalg.lstsq(x, y, rcond=RANK_REL_TOL)
    assert calls[0] == 1 and rank == ref_rank == 5  # the reference's own call
    assert np.max(np.abs(beta - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert same_with_factor(x, y, beta, rank).inv is not None
    # full rank, but cond(x) is about 1e7 > 1e5: the certificate fails
    x[:, 4] = x[:, 3] + 1e-7 * rng.standard_normal(80)
    beta, rank = least_squares(x, y)
    assert rank == 5 and calls[0] == 2
    assert same_with_factor(x, y, beta, rank).inv is None
    # rank-deficient: the Cholesky factorization itself fails or is refused
    x[:, 4] = x[:, 3]
    beta, rank = least_squares(x, y)
    assert rank == 4 and calls[0] == 3
    assert same_with_factor(x, y, beta, rank).inv is None


def _same_factor(a, b):
    return (a.inv is None and b.inv is None) or (
        a.inv is not None and b.inv is not None and np.array_equal(a.inv, b.inv)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_factorize_rejects_a_non_finite_design(bad):
    x = np.random.default_rng(33).standard_normal((20, 3))
    x[7, 1] = bad
    with pytest.raises(UsageError, match="design must be finite with finite squares"):
        factorize(x)


EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 41])
def test_block_inverse_matches_the_general_inverse(d):
    # factorize's L^-1, the inverse of one block row grown from no column,
    # against the general inverse of the Cholesky factor.  Tolerance, set
    # from float64 before measuring: max |M - inv(L)| <= d eps cond(L) max
    # |inv(L)|, the first-order forward error of a triangular inverse
    # (Higham 2002, section 14.2).  Observed: at most 2.5e-3 of it.  The
    # inverse is exactly lower triangular: the general inverse with its
    # rounding noise above the diagonal dropped
    for seed in range(10):
        rng = np.random.default_rng([d, seed])
        x = rng.standard_normal((2 * d + 10, d)) * np.logspace(0, 2, d)
        l = np.linalg.cholesky(x.T @ x)
        ref = np.linalg.inv(l)
        got = factorize(x).inv
        assert np.max(np.abs(got - ref)) <= d * EPS * np.linalg.cond(l) * np.max(np.abs(ref))
        assert np.array_equal(got, np.tril(got))
        assert np.array_equal(got, np.tril(ref))


@pytest.mark.parametrize("d, conds", [(9, (0.9e5, 1.1e5)), (41, (4.0e4, 4.4e4))])
def test_block_inverse_near_the_certificate_bound(d, conds):
    # cond(x) near 1e5, scaled so that the certificate trace(g) ||L^-1||_F^2
    # falls just below 1e10 for the first design and just above it for the
    # second: the block inverse makes the decision that the general inverse
    # makes, and a certified factor is within the tolerance of the test above
    # (observed: bounds within 2.6e-15 relative, inverses within 1e-5 of it)
    decisions = []
    for c in conds:
        rng = np.random.default_rng(d)
        u = np.linalg.qr(rng.standard_normal((3 * d, d)))[0]
        v = np.linalg.qr(rng.standard_normal((d, d)))[0]
        x = (u * np.logspace(0, np.log10(c), d)) @ v.T
        g = x.T @ x
        l = np.linalg.cholesky(g)
        ref = np.linalg.inv(l)
        refused = np.trace(g) * np.sum(ref * ref) > 1.0 / RANK_REL_TOL
        factor = factorize(x)
        assert (factor.inv is None) == refused
        if not refused:
            assert np.max(np.abs(factor.inv - ref)) <= d * EPS * np.linalg.cond(l) * np.max(np.abs(ref))
        decisions.append(refused)
    assert decisions == [False, True]


def _overflowing_design():
    """``x = H B`` for 64 rows of a Hadamard matrix and B the 60 x 60 upper bidiagonal with 2^-20 on the diagonal, 1 above it."""
    h = np.ones((1, 1))
    for _ in range(6):
        h = np.kron(h, [[1.0, 1.0], [1.0, -1.0]])
    d = 60
    b = 2.0**-20 * np.eye(d) + np.eye(d, k=1)
    return h[:, :d] @ b, b


def test_overflowing_block_inverse_is_refused_without_a_warning():
    # x = H B (_overflowing_design): x'x = 64 B'B and its Cholesky factor 8 B'
    # are exact, and inv(8 B') has entries up to 2^(20 * 60) / 8, which
    # overflow, so np.linalg.inv refuses it.  Under -W error nothing warns,
    # the design is refused, and its fit goes to lstsq
    x, b = _overflowing_design()
    d = b.shape[0]
    assert np.array_equal(np.linalg.cholesky(x.T @ x), 8 * b.T)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(8 * b.T)
    rng = np.random.default_rng(35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert factorize(x).inv is None
        assert least_squares(x, rng.standard_normal(64))[1] < d


def _recording_qr(monkeypatch):
    """Patch ``np.linalg.qr`` to record the shape of each call's input; returns the list of shapes."""
    shapes = []
    real = np.linalg.qr

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    return shapes


@pytest.mark.parametrize(
    "width, rows",
    [
        (25, [100]),  # fewer rows than a leaf, 8192 // 25 = 327 rows
        (25, [327 * 4]),  # an exact multiple of the leaf
        (25, [1000]),  # equal leaves and rows left over
        (25, [10]),  # fewer rows than columns
        (25, [1308, 1000, 7, 4096]),  # blocks of each kind, folded into one R
        (70, [426, 500]),  # 2 * 70 rows of 70 exceed FOLD_CELLS: leaves of 2 * 70 + 2 rows
    ],
)
def test_row_compress_keeps_the_gram_matrix(monkeypatch, width, rows):
    # R'R equals A'A of the stacked blocks within 1e-14 of its largest entry
    # (observed 1.5e-16 to 5.4e-16), R is upper triangular with min(n, d)
    # rows, a column that is zero in every block stays exactly zero, and no
    # QR member holds more rows than a leaf
    rng = np.random.default_rng(width + len(rows))
    blocks = [rng.standard_normal((m, width)) * np.logspace(0, 3, width) for m in rows]
    for block in blocks:
        block[:, 4] = 0.0
    shapes = _recording_qr(monkeypatch)
    r = row_compress(iter(blocks))
    a = np.concatenate(blocks)
    g = a.T @ a
    assert r.shape == (min(a.shape), width) and np.array_equal(r, np.triu(r))
    assert np.max(np.abs(r.T @ r - g)) <= 1e-14 * np.max(np.abs(g))
    assert np.all(r[:, 4] == 0.0)
    leaf = max(FOLD_CELLS // width, 2 * width + 2)
    assert all(shape[-2] <= leaf and shape[-1] == width for shape in shapes)


def test_row_compress_folds_a_chunk_in_stacked_leaves(monkeypatch):
    # 4096-row chunks of 25 columns, as the gap benchmark folds them: one
    # stacked QR of 13 leaves of 315 rows, the one row left over joining their
    # R factors.  The first chunk's 326 rows then fit one leaf; from the
    # second on, the R factor so far joins them, and 351 rows take a level of
    # 2 leaves before the last QR
    shapes = _recording_qr(monkeypatch)
    row_compress(np.random.default_rng(5).standard_normal((2, 4096, 25)))
    assert shapes == [(13, 315, 25), (326, 25), (13, 315, 25), (2, 175, 25), (51, 25)]


def test_conditional_fits_has_one_solver_dispatch():
    # every class fit goes through ConditionalFits._fits, and every factor
    # grows through ConditionalFits._grown: a second fit path would be a
    # second call site of one of these solvers
    source = inspect.getsource(ConditionalFits)
    for name in ("fit_span", "fit_l1", "extend"):
        assert len(re.findall(rf"\b{name}\(", source)) == 1, name


def test_least_squares_solvers_live_in_linalg():
    # every linear solve, factorization and rank decision lives in _linalg,
    # and every Cholesky factor and its inverse in its one factor step,
    # extend: no second factor routine
    package = Path(semorder.__file__).parent
    linalg = (package / "_linalg.py").read_text(encoding="utf-8")
    step = inspect.getsource(extend)
    for name in ("np.linalg.cholesky", "np.linalg.inv"):
        assert name in step and linalg.count(name) == step.count(name), f"_linalg.py calls {name} outside extend"
    for path in sorted(package.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        text = path.read_text(encoding="utf-8")
        for name in (
            "np.linalg.lstsq",
            "np.linalg.cholesky",
            "np.linalg.qr",
            "np.linalg.solve",
            "np.linalg.inv",
            "np.linalg.pinv",
        ):
            assert name not in text, f"{path.name} calls {name}"


def _span_dimension(class_spec, k):
    dictionary = class_spec.dictionary
    if k and dictionary.family != TRIGONOMETRIC:
        return k * (dictionary.size - 1) + 1
    return int(class_spec.intercept) + k * dictionary.size


def test_best_order_leaves_no_reference_cycle():
    # the engine holds every basis block: a finished search must not keep it
    # alive until the cycle collector runs
    data = np.random.default_rng(3).standard_normal((60, 4))
    fits = ConditionalFits(data, ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))))
    assert sorted(fits.best_order([0] * 4)) == [0, 1, 2, 3]
    gone = weakref.ref(fits)
    gc.disable()
    try:
        del fits
        assert gone() is None
    finally:
        gc.enable()


def test_best_order_rejects_cyclic_precedence():
    # x0 must follow x1 and x1 must follow x0: no order is allowed
    data = np.random.default_rng(25).standard_normal((50, 3))
    fits = ConditionalFits(data, ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-4.0, 4.0))))
    with pytest.raises(UsageError, match="cycle"):
        fits.best_order([0b010, 0b001, 0])


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


def _check_against_full_design(values, class_spec, calls):
    """Every sigma-table entry of the engine against the explicit SVD fit of the full n-row class design.

    Rank, floored and degenerate must agree exactly.  Returns the largest
    relative sigma^2 difference over the fits that took the certified
    Cholesky path (`calls`, from :func:`_counting_lstsq`, did not move) and
    over the others, floored fits left out.
    """
    n, p = values.shape
    fits = ConditionalFits(values, class_spec)
    worst = [0.0, 0.0]
    for v in range(p):
        y = values[:, v]
        floor = max(1e-12 * float(np.mean(y * y)), np.finfo(np.float64).tiny)
        for mask in range(1 << p):
            cols = [k for k in range(p) if mask >> k & 1]
            if mask >> v & 1 or len(cols) * class_spec.dictionary.size + 1 > n:
                continue
            before = calls[0]
            fit = fits.fit(v, mask)
            certified = calls[0] == before
            rv, floored, degenerate = fits.sigma(v, mask)
            assert fit.n_obs == n
            if not cols and not class_spec.intercept:
                ref, rank = float(np.mean(y * y)), 0
            else:
                x = design_matrix(class_spec.dictionary, [values[:, k] for k in cols], class_spec.intercept, n)
                beta, rank = oracles.svd_lstsq(x, y)
                resid = y - x @ beta
                ref = float(resid @ resid) / n
            assert fit.rank == rank
            assert degenerate == (rank < _span_dimension(class_spec, len(cols)))
            assert floored == (ref < floor)
            if not floored:
                worst[not certified] = max(worst[not certified], abs(fit.residual_variance - ref) / ref)
    return worst


def test_compressed_engine_matches_full_design_at_its_edges(monkeypatch):
    # ConditionalFits fits on the R factor of a QR of the data, folded in
    # chunks; a 64-row chunk (256 points at p=4) makes n=300 a ragged
    # multiple and n=20 a single chunk with fewer rows than the folded matrix
    # has columns (25 with a spline intercept class, 29 without).
    # sigma^2 within 1e-12 relative (observed 3.9e-13) wherever the certificate
    # proves cond <= 1e5.  The n=20 spline designs that fail it (cond 6e5 to
    # 3e6) reach 5.9e-11, since the compression perturbs the problem itself by
    # rounding times cond: the bound there is 1e-9
    calls = _counting_lstsq(monkeypatch)
    monkeypatch.setattr(regress, "CHUNK_POINTS", 64 * 4)
    chain = SemSpec(
        p=4, order=(0, 1, 2, 3),
        edges={(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(3)},
        noise_sd=(1.0, 0.3, 0.3, 0.3),
    )
    values = sample(chain, 300, seed=5).values
    flat = values.copy()
    flat[:, 2] = 0.25  # a constant column: every fit of it is floored, every block of it is degenerate
    # the chain stays inside (-3.5, 3.5), so 10 cells on (-5, 5) leave the outer ones empty
    assert not np.any(np.abs(values) >= 3.5)
    classes = [
        ClassSpec(Dictionary(kind, size, (-5.0, 5.0)), intercept=icpt)
        for kind, size in [(CUBIC_B_SPLINE, 6), (PIECEWISE_CONSTANT, 10), (TRIGONOMETRIC, 3)]
        for icpt in (True, False)
    ]
    worst = [0.0, 0.0]
    for class_spec in classes:
        for data in (values, flat, values[:20]):
            worst = np.maximum(worst, _check_against_full_design(data, class_spec, calls))
    assert worst[0] <= 1e-12 and worst[1] <= 1e-9


def test_compressed_engine_l1_fits_are_kkt_points_of_the_full_design(monkeypatch):
    monkeypatch.setattr(regress, "CHUNK_POINTS", 64 * 3)
    chain = SemSpec(
        p=3, order=(0, 1, 2),
        edges={(0, 1): EdgeFunction("sine", (2.0, 1.5)), (1, 2): EdgeFunction("sine", (2.0, 1.5))},
        noise_sd=(1.0, 0.3, 0.3),
    )
    values = sample(chain, 1000, seed=18).values
    for icpt in (True, False):
        cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), kind="l1", budget=1.0, intercept=icpt)
        fits = ConditionalFits(values, cs)
        for v in range(3):
            for mask in range(1, 8):
                if mask >> v & 1:
                    continue
                design = oracles.direct_design(values, cs, [k for k in range(3) if mask >> k & 1])
                budget = cs.total_budget(mask.bit_count())
                fit = fits.fit(v, mask)
                direct = fit_l1(design, values[:, v], budget, intercept=icpt)
                assert fit.converged and fit.kkt_residual <= 1e-12
                assert fit.n_obs == 1000
                assert kkt_residual(design, values[:, v], fit.coefficients, budget, icpt) <= 1e-12
                assert abs(fit.residual_variance - direct.residual_variance) <= 1e-12 * direct.residual_variance


def test_compressed_engine_matches_full_design_with_an_unreached_middle_cell(monkeypatch):
    # data on [-5, -2.2) and [3.6, 5] leaves interior cells empty while the
    # last cell is reached: cells 3 to 7 of 10 piecewise-constant cells, and
    # the spline B_5 of K = 10, whose support is [-2.14, 3.57].  The folded
    # matrix never holds a block's last column, which the design drops
    # instead of the unreached middle one
    calls = _counting_lstsq(monkeypatch)
    rng = np.random.default_rng(44)
    n = 300
    side = rng.random(n) < 0.5
    x0 = np.where(side, rng.uniform(-5.0, -2.2, n), rng.uniform(3.6, 5.0, n))
    flip = rng.random(n) < 0.2
    x1 = np.where(side ^ flip, rng.uniform(-5.0, -2.2, n), rng.uniform(3.6, 5.0, n))
    x2 = np.where(x1 < 0, -2.2 - 2.8 * ((x0 + 5.0) % 1.0), 3.6 + 1.4 * ((x1 - 3.6) / 1.4) ** 2)
    values = np.column_stack([x0, x1, x2])
    for kind, size, middle in [(PIECEWISE_CONSTANT, 10, [3, 4, 5, 6, 7]), (CUBIC_B_SPLINE, 10, [5])]:
        class_spec = ClassSpec(Dictionary(kind, size, (-5.0, 5.0)))
        reached = basis_matrix(class_spec.dictionary, values).reshape(n, 3, size).any(axis=0)
        assert not reached[:, middle].any() and reached[:, size - 1].all()
        worst = _check_against_full_design(values, class_spec, calls)
        assert worst[0] <= 1e-12 and worst[1] <= 1e-9
        assert ConditionalFits(values, class_spec).sigma(0, 0b110)[2]  # a block lost a column: degenerate


@pytest.mark.parametrize(
    "kind, size, intercept, l1, folded",
    [
        (CUBIC_B_SPLINE, 6, True, False, 5),
        (PIECEWISE_CONSTANT, 5, True, False, 4),
        (CUBIC_B_SPLINE, 6, False, False, 6),
        (TRIGONOMETRIC, 3, True, False, 3),
        (CUBIC_B_SPLINE, 6, True, True, 6),
    ],
)
def test_compression_folds_only_basis_columns_some_design_keeps(monkeypatch, kind, size, intercept, l1, folded):
    # with an intercept a span class's partition-of-unity block never keeps
    # its last column, so the fold leaves it out: A of a p = 4 spline class
    # has 1 + 4 * 5 + 4 = 25 columns instead of 29.  Classes without an
    # intercept, the trigonometric family and l1 classes fold every column
    budget = {"kind": "l1", "budget": 1.0} if l1 else {}
    class_spec = ClassSpec(Dictionary(kind, size, (-5.0, 5.0)), intercept=intercept, **budget)
    values = np.random.default_rng(45).standard_normal((200, 4))
    shapes = _recording_qr(monkeypatch)
    ConditionalFits(values, class_spec).sigma(0, 0b1110)
    assert shapes[0][-1] == int(intercept) + 4 * folded + 4


@pytest.mark.parametrize("budget", [1e6, 1e9, 1e12, 1e15, 1e20])
def test_l1_fit_leaves_rounding_noise_columns_out_of_its_path(budget):
    # 15 identical rows: on the intercept's residuals every basis column is
    # rounding noise, which the path's rank rule measures against the whole
    # design, intercept included, as gelsd does.  Measured against the noise
    # itself, the columns joined the path: sigma^2 rose to 1.3e-2 and the fit
    # stopped converging from budget 1e9 up
    x = np.tile([1.0, 2.0], (15, 1))
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 4, (-5.0, 5.0)), kind="l1", budget=budget)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = ConditionalFits(x, cs).fit(1, 1)
    assert fit.converged and fit.kkt_residual <= 1e-8
    assert fit.residual_variance <= 1e-28


def test_sigma_table_never_holds_an_n_row_design():
    # n = 200,000 rows, p = 4, spline K = 6: A = [1 | B_1..B_4 | X] has 29
    # columns, 46.4 MB as one array; the engine folds it in chunks, one alive
    # at a time (observed 1.32 MB, the bound 1.6 MB; holding a stale chunk
    # basis and the kernel's dead operands peaked at 4.7 MB)
    n, p = 200_000, 4
    values = np.random.default_rng(19).standard_normal((n, p))
    fits = ConditionalFits(values, ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0))))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for v in range(p):
            for mask in range(1 << p):
                if not mask >> v & 1:
                    fits.sigma(v, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(fits._var) == p * 2 ** (p - 1)
    assert peak < 1.6e6


def test_engine_data_check_never_copies_the_data():
    # the mean squares are summed a chunk at a time: no n x p temporary
    values = np.random.default_rng(20).standard_normal((200_000, 4))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ConditionalFits(values, ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 4


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("p", [1, 4, 9])
def test_engine_floor_is_each_columns_mean_square_bit_for_bit(p, order):
    # numpy sums a C-ordered matrix row by row and a column pairwise; the
    # chunked sum repeats either, also over a last, partial chunk
    rows = regress.CHUNK_POINTS // p
    values = np.random.default_rng(p).standard_normal((3 * rows + 5, p)) * np.geomspace(1e-3, 1e3, p)
    values = np.asarray(values, order=order)
    fits = ConditionalFits(values, ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))))
    assert np.array_equal(fits._floor, np.maximum(1e-12 * np.mean(values * values, axis=0), np.finfo(np.float64).tiny))


@pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (1e160, "inf")])
def test_engine_names_a_bad_column_in_the_last_partial_chunk(bad, shown):
    # the data check sums the squares in chunks of CHUNK_POINTS // p rows;
    # a NaN, or a finite cell whose square overflows, in the last row is seen
    p = 3
    values = np.random.default_rng(22).standard_normal((2 * (regress.CHUNK_POINTS // p) + 17, p))
    values[-1, 1] = bad
    with pytest.raises(UsageError, match=rf"^column x2 has a non-finite mean square \({shown}\)$"):
        ConditionalFits(values, ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))))


def test_engine_releases_the_data_once_compressed():
    # only the compression reads the data: a search keeps its m-row C, not the n-row sample
    values = np.random.default_rng(21).standard_normal((300, 3))
    fits = ConditionalFits(values, ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0))))
    data = weakref.ref(values)
    del values
    assert data() is not None
    fits.fill([0] * 3)
    assert data() is None


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
    assert np.count_nonzero(fits._var) == 5 * 2 ** 4


def _chain_with_a_copy():
    """A 4-variable sine chain, n = 300, with a fifth column that repeats the fourth; every entry below 3.5."""
    chain = SemSpec(
        p=4, order=(0, 1, 2, 3),
        edges={(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(3)},
        noise_sd=(1.0, 0.3, 0.3, 0.3),
    )
    chained = sample(chain, 300, seed=5).values
    values = np.column_stack([chained, chained[:, 3]])
    assert not np.any(np.abs(values) >= 3.5)
    return values


def _table(fits):
    """The filled entries of the engine's sigma table: ``(v, mask) -> (variance, floored, degenerate)``."""
    return {(int(v), int(mask)): fits._stored(int(v), int(mask)) for v, mask in zip(*np.nonzero(fits._var))}


def _set_design(fits, mask):
    """The engine's design of the set `mask`, read off the set's chain, and whether a block of it lost a column."""
    nodes = fits._chain(mask)
    return fits._gather(nodes.cols)[0], bool(nodes.lost[0])


def test_sigma_table_rows_equal_per_entry_fits(monkeypatch):
    # Every entry is one fit on the engine's design of its set.  A span
    # entry whose design fit_span certifies must match fit_span on that
    # design without a factor (factorize's) within 1e-13 relative (observed
    # 5.9e-15): its factor was grown from its parent's instead.  One that
    # fit_span sends to gelsd must have gone to gelsd too, so it matches bit
    # for bit, and every l1 entry is fit_l1 on the design, bit for bit.
    # Flags must agree everywhere.  x5 repeats x4, so the piecewise-constant
    # designs holding both are rank-deficient and take the gelsd path; its
    # 10 cells on (-5, 5) leave the outer ones empty.
    calls = _counting_lstsq(monkeypatch)
    values = _chain_with_a_copy()
    classes = [
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0))),
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), intercept=False),
        ClassSpec(Dictionary(PIECEWISE_CONSTANT, 10, (-5.0, 5.0))),
        ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-5.0, 5.0))),
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), kind="l1", budget=2.0),
    ]
    p = values.shape[1]
    fallback = 0
    for class_spec in classes:
        fits = ConditionalFits(values, class_spec)
        fits.best_order([0] * p)
        table = _table(fits)
        assert len(table) == p * 2 ** (p - 1)
        for (v, mask), entry in sorted(table.items()):
            design, lost = _set_design(fits, mask)
            y = fits._targets[:, v]
            tol = 0.0
            if not design.shape[1]:
                rv, degenerate = float(np.mean(y * y)), False
            elif class_spec.kind == "l1" and mask:
                budget = class_spec.total_budget(mask.bit_count())
                rv, degenerate = fit_l1(design, y, budget, intercept=class_spec.intercept).residual_variance, False
            else:
                before = calls[0]
                fit = fit_span(design, y)
                fallback += calls[0] > before
                tol = 0.0 if calls[0] > before else 1e-13
                rv, degenerate = fit.residual_variance, fit.degenerate or lost
            floor = fits._floor[v]
            assert entry[1:] == (rv < floor, degenerate)
            assert abs(entry[0] - max(rv, floor)) <= tol * max(rv, floor)
        if class_spec.dictionary.family == PIECEWISE_CONSTANT:
            assert any(degenerate for _, _, degenerate in table.values())
    assert fallback > 0


def test_sigma_table_is_the_same_whatever_the_stack_bound(monkeypatch):
    # STACK_BYTES only bounds how many sets of one width the walk grows and
    # fits in one stacked step: stacks of one set, and stacks of three that
    # leave some stack of the widest designs partial, give the default table
    # bit for bit
    values = _chain_with_a_copy()
    p = values.shape[1]
    classes = [
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0))),
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), intercept=False),
        ClassSpec(Dictionary(PIECEWISE_CONSTANT, 10, (-5.0, 5.0))),
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), kind="l1", budget=2.0),
    ]
    stacks = []
    real = ConditionalFits._grow

    def recorded(self, nodes, rows, vs):
        children = real(self, nodes, rows, vs)
        stacks.append((len(rows), children[0].cols.shape[1]))
        return children

    full = (1 << p) - 1
    for class_spec in classes:
        default = ConditionalFits(values, class_spec)
        default.best_order([0] * p)
        table = _table(default)
        if class_spec.dictionary.family == PIECEWISE_CONSTANT:
            assert any(degenerate for _, _, degenerate in table.values())  # a block lost a column
        m = default._c.shape[0]
        widest = max(default._chain(full & ~(1 << v)).cols.shape[1] for v in range(p))
        for bound in (1, 3 * 8 * m * widest):
            monkeypatch.setattr(regress, "STACK_BYTES", bound)
            monkeypatch.setattr(ConditionalFits, "_grow", recorded)
            stacks.clear()
            fits = ConditionalFits(values, class_spec)
            fits.best_order([0] * p)
            monkeypatch.undo()
            if bound == 1:
                assert {size for size, _ in stacks} == {1}
            else:  # the widest designs: stacks of at most three, one of them partial
                sizes = [size for size, width in stacks if width == widest]
                assert max(sizes) == 3 and min(sizes) < 3
            assert _table(fits) == table


def test_sigma_table_factors_each_predictor_set_once(monkeypatch):
    # counts the sets whose factors grow by one block row: a stacked call
    # grows one per leading index
    grown = [0]
    real = regress.extend

    def counted(parent, g_pb, g_bb):
        grown[0] += g_bb.shape[0]
        return real(parent, g_pb, g_bb)

    monkeypatch.setattr(regress, "extend", counted)
    solves = _counting(monkeypatch, regress, "fit_span")
    p = 5
    values = np.random.default_rng(23).standard_normal((200, p))
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0)))
    # exact search: each predictor set short of all p grows once from its
    # parent (the empty set from no column), one solve per (variable, set)
    # entry
    ConditionalFits(values, cs).best_order([0] * p)
    assert (grown[0], solves[0]) == (2**p - 1, p * 2 ** (p - 1))
    # greedy: each step's set grows along its chain from the empty set, and
    # the chain of the step before is kept, so adding v regrows only v and
    # the placed columns above it; then one solve per unplaced variable
    grown[0] = solves[0] = 0
    fits = ConditionalFits(values, cs)
    pi = semorder.order._greedy_from_cache(fits).order
    regrown = sum(1 + sum(b > v for b in pi[:t]) for t, v in enumerate(pi[:-1]))
    assert (grown[0], solves[0]) == (1 + regrown, p * (p + 1) // 2)
    assert regrown > p - 1  # some column joined below one already placed
    # a chain has one allowed order: one growth and one solve per position
    grown[0] = solves[0] = 0
    fits = ConditionalFits(values, cs)
    assert fits.best_order([0] + [1 << (v - 1) for v in range(1, p)]) == tuple(range(p))
    assert (grown[0], solves[0], len(_table(fits))) == (p, p, p)


def _walked_factors(monkeypatch):
    """Record the factor of every set the walk visits: ``mask -> L^-1``, or None for a set without a certified one."""
    seen = {}
    real = ConditionalFits._visit

    def spy(self, nodes, want, need):
        for j, mask in enumerate(nodes.masks.tolist()):
            seen[mask] = None if nodes.factors is None else nodes.factors.inv[j]
        return real(self, nodes, want, need)

    monkeypatch.setattr(ConditionalFits, "_visit", spy)
    return seen


def _walk_case(name):
    """Data and class of one walk test: a 5-variable sine chain, n = 300, every entry below 3."""
    chain = SemSpec(
        p=5, order=tuple(range(5)),
        edges={(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(4)},
        noise_sd=(1.0,) + (0.3,) * 4,
    )
    values = sample(chain, 300, seed=5).values
    assert np.abs(values).max() < 3.0
    spline = Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0))
    if name == "spline":
        return values, ClassSpec(spline)
    if name == "spline without intercept":
        return values, ClassSpec(spline, intercept=False)
    if name == "trigonometric":
        return values, ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-5.0, 5.0)))
    if name == "empty cells":  # x1 halved reaches 4 of the 10 cells, the others 6
        return values * [0.5, 1, 1, 1, 1], ClassSpec(Dictionary(PIECEWISE_CONSTANT, 10, (-5.0, 5.0)))
    return np.column_stack([values[:, :4], values[:, 3]]), ClassSpec(spline)  # "collinear": x5 repeats x4


WALK_CASES = ["spline", "spline without intercept", "trigonometric", "empty cells", "collinear"]


@pytest.mark.parametrize("case", WALK_CASES)
def test_walked_factors_and_entries_match_the_full_designs(monkeypatch, case):
    # Each factor that the walk grows against factorize of the set's whole
    # engine design: the same certificate decision, and L^-1 within 1e-9 of
    # its largest entry (observed 8.6e-11; the walk reads its Gram blocks
    # off G = C'C, factorize forms x'x itself, and the Cholesky step scales
    # that rounding by up to cond(x'x)).  Each entry against the fit on the
    # full n-row class design: sigma^2 within 1e-12 relative (observed
    # 2.8e-14), the same floored flag, and degenerate exactly where the
    # rank is below the class span's dimension.  With empty cells the design
    # widths differ within a layer; with x5 repeating x4 every set holding
    # both fails the certificate, and its subtree goes to gelsd.
    values, class_spec = _walk_case(case)
    n, p = values.shape
    seen = _walked_factors(monkeypatch)
    fits = ConditionalFits(values, class_spec)
    fits.fill([0] * p)
    assert set(seen) == set(range((1 << p) - 1))
    widths = {}
    for mask, inv in seen.items():
        design, _ = _set_design(fits, mask)
        widths.setdefault(mask.bit_count(), set()).add(design.shape[1])
        if not design.shape[1]:
            continue
        ref = factorize(design)
        assert (inv is None) == (ref.inv is None)
        if inv is not None:
            assert np.array_equal(inv, np.tril(inv))
            assert np.max(np.abs(inv - ref.inv)) <= 1e-9 * np.max(np.abs(ref.inv))
    assert (max(len(w) for w in widths.values()) > 1) == (case == "empty cells")
    assert any(inv is None for inv in seen.values()) == (case == "collinear")
    direct = oracles.direct_sigma(values, class_spec)
    for v, mask in zip(*np.nonzero(fits._var)):
        v, mask = int(v), int(mask)
        rv, floored, degenerate = fits._stored(v, mask)
        cols = [k for k in range(p) if mask >> k & 1]
        ref = direct(v, mask)
        assert abs(rv - ref) <= 1e-12 * ref
        assert floored == (ref == fits._floor[v])
        if cols or class_spec.intercept:
            _, rank = oracles.svd_lstsq(oracles.direct_design(values, class_spec, cols), values[:, v])
            assert degenerate == (rank < _span_dimension(class_spec, len(cols)))


@pytest.mark.parametrize("case", WALK_CASES + ["l1"])
def test_walked_entries_equal_single_requests_bit_for_bit(monkeypatch, case):
    # every request grows its factor along the one chain from the empty set,
    # so a walked table equals a fresh engine's one-entry misses to the bit,
    # flags included, and each walked factor equals the factor of that set's
    # chain grown alone
    if case == "l1":
        values, _ = _walk_case("spline")
        class_spec = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), kind="l1", budget=2.0)
    else:
        values, class_spec = _walk_case(case)
    p = values.shape[1]
    seen = _walked_factors(monkeypatch)
    walked = ConditionalFits(values, class_spec)
    walked.fill([0] * p)
    monkeypatch.undo()
    single = ConditionalFits(values, class_spec)
    for (v, mask), entry in _table(walked).items():
        assert single.sigma(v, mask) == entry
    for mask, inv in seen.items():
        alone = single._chain(mask)
        assert _same_factor(Factor(inv), Factor(None if alone.factors is None else alone.factors.inv[0]))


def test_fill_of_several_searches_takes_one_walk_over_the_union_of_their_entries(monkeypatch):
    # the identifiability gap's searches with one edge reversed: filled
    # together they make one walk, fit exactly the entries some search
    # reaches, and equal the searches filled one at a time to the bit
    values, class_spec = _walk_case("spline")
    p = values.shape[1]
    searches = [[1 << j if v == k else 0 for v in range(p)] for k, j in [(0, 1), (1, 2), (3, 4)]]
    apart = ConditionalFits(values, class_spec)
    for before in searches:
        apart.fill(before)
    walks = _counting(monkeypatch, ConditionalFits, "_walk")
    together = ConditionalFits(values, class_spec)
    layers = together.fill(*searches)
    assert walks[0] == 1 and len(layers) == len(searches)
    assert _table(together) == _table(apart)
    assert 0 < len(_table(together)) < p * 2 ** (p - 1)


def test_walk_grows_exactly_lower_triangular_inverse_factors(monkeypatch):
    # np.linalg.inv of a triangular block leaves rounding noise above its
    # diagonal; every L^-1 that a p = 6 walk grows is exactly triangular
    values = sample(
        SemSpec(
            p=6, order=tuple(range(6)),
            edges={(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(5)},
            noise_sd=(1.0,) + (0.3,) * 5,
        ),
        400, seed=9,
    ).values
    seen = _walked_factors(monkeypatch)
    ConditionalFits(values, ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))).best_order([0] * 6)
    assert len(seen) == 2**6 - 1 and all(inv is not None for inv in seen.values())
    for inv in seen.values():
        assert np.array_equal(inv, np.tril(inv))


def test_walked_sigma_keeps_its_accuracy_on_a_near_deterministic_chain():
    # x_{j+1} = 2 sin(1.5 x_j) + sigma_c z: the fits of a child on its parent
    # leave residuals near sigma_c^2, far below the data's scale.  Against
    # the fits on the full n-row designs the table keeps 1e-12 relative
    # (observed 3.4e-13 at sigma_c = 1e-4 and 2.4e-13 at 1e-7); forming W =
    # L_P^-1 G_Pb by the product alone, without the refinement step, gave
    # 5.4e-12 and 2.1e-11
    p, n = 6, 2000
    class_spec = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))
    for noise in (1e-4, 1e-7):
        rng = np.random.default_rng(11)
        values = np.empty((n, p))
        values[:, 0] = rng.standard_normal(n)
        for j in range(1, p):
            values[:, j] = 2.0 * np.sin(1.5 * values[:, j - 1]) + noise * rng.standard_normal(n)
        values = np.clip(values, -4.9, 4.9)
        fits = ConditionalFits(values, class_spec)
        fits.best_order([0] * p)
        direct = oracles.direct_sigma(values, class_spec)
        for (v, mask), (rv, floored, _) in _table(fits).items():
            if not floored:
                assert abs(rv - direct(v, mask)) <= 1e-12 * direct(v, mask)


def test_greedy_above_the_exact_guard_fits_each_step_once(monkeypatch):
    # p = 19 has no sigma table: greedy builds its estimate from the entries
    # it chose, so its p (p + 1) / 2 fits are all, and a sigma request is
    # fitted anew each time
    calls = _counting(monkeypatch, regress, "fit_span")
    values = np.random.default_rng(26).standard_normal((100, 19))
    fits = ConditionalFits(values, ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-4.0, 4.0))))
    est = semorder.order._greedy_from_cache(fits)
    assert sorted(est.order) == list(range(19)) and calls[0] == 19 * 20 // 2
    assert est.sigma_hat.tolist() == fits.along(est.order)[0].tolist()
    assert fits._var.size == 0 and calls[0] == 19 * 20 // 2 + 19
    with pytest.raises(CapacityError, match="p <= 18"):
        fits.fill([0] * 19)


def test_extend_grows_each_member_alone_and_refuses_a_singular_schur_complement(monkeypatch):
    # a stack of five parents, each grown by two columns; the fourth member's
    # new block repeats two of its parent's columns, so its Schur complement
    # is singular: the stacked Cholesky fails, each member is factored alone,
    # and only that member is refused.  Every member is bit for bit its own
    # factor grown alone
    rng = np.random.default_rng(36)
    x = rng.standard_normal((5, 40, 7))
    x[3, :, 5:] = x[3, :, 1:3]
    g = np.swapaxes(x, -1, -2) @ x
    parent = Factors.empty(5)
    parent, ok = extend(parent, g[:, :0, :5], g[:, :5, :5])
    assert ok.all()
    calls = _counting(monkeypatch, np.linalg, "cholesky")
    grown, ok = extend(parent, g[:, :5, 5:], g[:, 5:, 5:])
    assert calls[0] == 1 + 5
    assert ok.tolist() == [True, True, True, False, True]
    for i in (0, 1, 2, 4):
        alone, _ = extend(parent.take([i]), g[i : i + 1, :5, 5:], g[i : i + 1, 5:, 5:])
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(alone, grown))
        ref = factorize(x[i])
        assert np.max(np.abs(grown.inv[i] - ref.inv)) <= 1e-12 * np.max(np.abs(ref.inv))
    # a stack of a well-conditioned 64 x 60 design and _overflowing_design,
    # grown from no column: the second member's L_22^-1 overflows, so the
    # stacked inverse fails, each member is inverted alone, and only that
    # member is refused, without a warning.  The first is bit for bit its
    # factor grown alone
    x = np.stack([rng.standard_normal((64, 60)), _overflowing_design()[0]])
    g = np.swapaxes(x, -1, -2) @ x
    calls = _counting(monkeypatch, np.linalg, "inv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grown, ok = extend(Factors.empty(2), g[:, :0], g)
        assert ok.tolist() == [True, False] and calls[0] == 1 + 2
        alone, ok = extend(Factors.empty(), g[:1, :0], g[:1])
    assert ok.tolist() == [True]
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(alone, grown))


def test_sigma_rejects_a_bad_target_or_mask():
    values = np.random.default_rng(24).standard_normal((50, 3))
    fits = ConditionalFits(values, ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-4.0, 4.0))))
    for call in (fits.sigma, fits.fit):
        with pytest.raises(UsageError, match="conditioned on itself"):
            call(0, 0b1)
        with pytest.raises(UsageError, match="out of range"):
            call(5, 0)
        with pytest.raises(UsageError, match="beyond the 3 columns"):
            call(0, 1 << 7)
        with pytest.raises(UsageError, match="beyond the 3 columns"):
            call(0, -1)
    assert not fits._var.any()
    fits.sigma(0, 0b110)


def test_predictor_mask_checks_the_target_by_the_entry_rule():
    fits = ConditionalFits(np.random.default_rng(25).standard_normal((50, 3)), trig_class())
    assert fits.predictor_mask(0, (2, 1)) == 0b110
    for v, s, message in [
        (5, (), "target column 5 out of range"),
        (0, (1, 0), "target column 0 cannot be conditioned on itself"),
        (0, (0, 0), "repeated indices"),  # the set is read whole before the target is checked
        (5, (7,), "conditioning index 7 out of range"),
    ]:
        with pytest.raises(UsageError, match=message):
            fits.predictor_mask(v, s)


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


def test_kkt_residual_scales_with_a_tiny_budget():
    # the origin is interior at any positive budget, however small, so its
    # residual is the whole gradient, not only the intercept term
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    grad = 2.0 * (x.T @ -y) / 50
    for budget in (1e-7, 1e-5, 1e-300):
        assert kkt_residual(x, y, np.zeros(3), budget) == float(np.max(np.abs(grad)))
    assert kkt_residual(x, y, np.zeros(3), 0.0) == 0.0


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


def test_fit_l1_reaches_least_squares_on_wide_spline_designs():
    # far above every binding budget the path ends at least squares, deciding
    # span membership by the span fits' rank rule: on these designs, with
    # condition numbers up to 1e16 and beyond, a coarser rule stops short
    worst = 0.0
    for s in range(300):
        rng = np.random.default_rng(s)
        k, blocks, n = int(rng.integers(4, 12)), int(rng.integers(1, 6)), int(rng.integers(41, 85))
        z = rng.standard_normal((n, blocks))
        x = np.column_stack([np.ones(n), basis_matrix(Dictionary(CUBIC_B_SPLINE, k, (-3.0, 3.0)), z)])
        y = np.sin(1.5 * z[:, 0]) + 0.3 * rng.standard_normal(n)
        fit = fit_l1(x, y, 1e9, intercept=True)
        assert fit.converged
        worst = max(worst, fit.kkt_residual)
    assert worst <= 5e-11


def test_fit_l1_drops_a_column_below_the_rank_rule_as_least_squares_does():
    # a column 1e-11 of the design's largest norm is zero under the rank rule,
    # even when it alone carries y: both fits drop it, and the KKT residual,
    # measured on the rank rule's columns, certifies the l1 fit
    rng = np.random.default_rng(14)
    z, u = rng.standard_normal((2, 40))
    u -= z * (z @ u) / (z @ z)
    x = np.column_stack([1e6 * u, 1e-5 * z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_l1(x, z, 1e9)
    assert fit.converged and fit.kkt_residual <= 1e-8
    assert abs(fit.residual_variance - fit_span(x, z).residual_variance) <= 1e-12 * fit.residual_variance


@pytest.mark.parametrize(
    "name, where, bad",
    [(name, where, bad) for name in ("fit_l1", "fit_span", "kkt_residual") for where in ("x", "y") for bad in (np.nan, np.inf)]
    + [("kkt_residual", "beta", bad) for bad in (np.nan, np.inf)]
    + [(name, where, 1e200) for name in ("fit_l1", "fit_span") for where in ("x", "y")]
    + [("kkt_residual", "x", 1e200)],
)
def test_public_fits_reject_non_finite_input(name, where, bad, capfd):
    # a usage error, raised before LAPACK sees the entry and prints to the
    # terminal; 1e200 is finite, but its square overflows in the fit's
    # products, and in kkt_residual's gradient once beta is nonzero
    rng = np.random.default_rng(12)
    arrays = {"x": np.column_stack([np.ones(30), rng.standard_normal((30, 3))]), "y": rng.standard_normal(30)}
    arrays["beta"] = np.ones(4) if bad == 1e200 else np.zeros(4)
    arrays[where].reshape(-1)[2] = bad
    x, y, beta = arrays["x"], arrays["y"], arrays["beta"]
    call = {
        "fit_l1": lambda: fit_l1(x, y, 1.0, intercept=True),
        "fit_span": lambda: fit_span(x, y),
        "kkt_residual": lambda: kkt_residual(x, y, beta, 1.0, intercept=True),
    }[name]
    with pytest.raises(UsageError, match="finite"):
        call()
    assert capfd.readouterr() == ("", "")


def trig_class(size=3, domain=(-1.0, 1.0), intercept=True):
    return ClassSpec(Dictionary(TRIGONOMETRIC, size, domain), kind="span", intercept=intercept)


def test_fit_over_subsets_matches_individual_fits():
    # fit_span on the full n-row design of the engine's columns against the
    # engine's fit on its compressed rows: the two agree to rounding, empty
    # cells (the outer ones of N=10 on (-5, 5)) and no intercept included.
    # Observed: sigma^2 within 8.8e-16 relative, coefficients within 1.7e-14
    # of the largest one; rank, flags and n_obs exactly
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
                direct = fit_span(oracles.direct_design(data.values, cls, key), data.values[:, 2])
                degenerate = direct.rank < _span_dimension(cls, len(key))
                assert abs(res.residual_variance - direct.residual_variance) <= 1e-12 * direct.residual_variance
                assert res.coefficients.shape == direct.coefficients.shape
                scale = float(np.max(np.abs(direct.coefficients), initial=0.0))
                assert np.all(np.abs(res.coefficients - direct.coefficients) <= 1e-12 * scale)
                assert (res.rank, res.degenerate, res.n_obs) == (direct.rank, degenerate, direct.n_obs)


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
    # the cell that re-draws the oracle sample runs the very fit that gives
    # the projection, so it lands on it exactly, span and l1 classes alike
    l1 = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-1.0, 1.0)), kind="l1", budget=1.0, intercept=False)
    for cls in (trig_class(), l1):
        rep = misspec_experiment(cubic_truth(), cls, n_grid=[4096], reps=1, oracle_n=4096, seed=19)
        assert rep.cells[0]["mean_dist"] == 0.0
        assert rep.cells[0]["mean_variance_gap"] == 0.0


def test_misspec_refuses_a_sample_that_misses_a_cell():
    # 4 points cannot reach 6 cells, so the fit has fewer columns than the oracle's
    cls = ClassSpec(Dictionary(PIECEWISE_CONSTANT, 6, (-1.0, 1.0)), intercept=False)
    with pytest.raises(DegeneracyError, match="n=4"):
        misspec_experiment(cubic_truth(), cls, n_grid=[4], reps=1, oracle_n=2000, seed=0)


def test_misspec_never_holds_an_n_row_design():
    # the oracle sample goes through one ConditionalFits, which checks and
    # folds it in chunks: the peak stays below 5 floats per oracle row
    # (observed 6.47 MB, 4.04 floats, while the sample is drawn; an n x p
    # data check and a stale chunk basis peaked at 9.6 MB, and holding the
    # full 200,000 x 7 design with its basis and products at 40.8 MB)
    oracle_n = 200_000
    cls = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-1.0, 1.0)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        misspec_experiment(cubic_truth(), cls, n_grid=[256], reps=2, oracle_n=oracle_n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < oracle_n * 8 * 5


def test_misspec_report_shape():
    rep = misspec_experiment(cubic_truth(), trig_class(), n_grid=[256, 512], reps=3, oracle_n=20_000, seed=20)
    assert {"mean_dist", "q90", "mean_variance_gap", "q90_variance_gap", "delta_n", "ratio_to_delta_n"} <= set(rep.cells[0])
    header, rows = rep.csv_rows()
    assert header == ["n", "rep", "metric", "value"]
    assert len(rows) == 2 * 2 * 3  # two metrics per (n, rep)
    assert {r[2] for r in rows} == {"coef_distance", "variance_gap"}


def test_projection_moment_convergence():
    # projection coefficients fitted on n and 4n samples drift at root-n scale
    d = Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))
    cls = trig_class()
    rng = np.random.default_rng(21)

    def beta_of(n):
        x = rng.uniform(-1.0, 1.0, n)
        y = x**3 + 0.3 * rng.standard_normal(n)
        psi = oracles.direct_design(x[:, None], cls, [0])
        return fit_span(psi, y).coefficients

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

