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
from semorder._linalg import FOLD_CELLS, INV_BLOCK, RANK_REL_TOL, _lower_inverse, factorize, least_squares, row_compress
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


def test_stacked_factorize_gives_each_design_its_own_factor():
    # every member of a stack is bit for bit the factor of its design alone,
    # certified or not, and a (2, 3, m, d) stack lists its members in C order
    rng = np.random.default_rng(31)
    stack = rng.standard_normal((6, 40, 7))
    stack[2, :, 6] = stack[2, :, 5] + 1e-7 * rng.standard_normal(40)  # cond about 1e7: refused
    factors = factorize(stack)
    assert isinstance(factors, list) and len(factors) == 6
    assert [f.inv is None for f in factors] == [False, False, True, False, False, False]
    for x, factor in zip(stack, factors):
        assert _same_factor(factor, factorize(np.ascontiguousarray(x)))
    nested = factorize(stack.reshape(2, 3, 40, 7))
    assert all(_same_factor(a, b) for a, b in zip(nested, factors))


def test_stacked_factorize_falls_back_per_design_on_a_singular_member(monkeypatch):
    # a rank-deficient member fails the stacked Cholesky; the stack is then
    # factored design by design, and the other members keep their factors
    rng = np.random.default_rng(32)
    stack = rng.standard_normal((5, 30, 4))
    stack[3, :, 3] = stack[3, :, 0]
    g = np.swapaxes(stack, -1, -2) @ stack
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(g)
    alone = [factorize(np.ascontiguousarray(x)) for x in stack]
    calls = _counting(monkeypatch, np.linalg, "cholesky")
    factors = factorize(stack)
    assert calls[0] == 1 + len(stack)
    assert [f.inv is None for f in factors] == [False, False, False, True, False]
    assert all(_same_factor(a, b) for a, b in zip(factors, alone))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_stacked_factorize_rejects_a_non_finite_member(bad):
    rng = np.random.default_rng(33)
    stack = rng.standard_normal((4, 20, 3))
    stack[2, 7, 1] = bad
    with pytest.raises(UsageError, match="design must be finite with finite squares"):
        factorize(stack)
    with pytest.raises(UsageError, match="design must be finite with finite squares"):
        factorize(stack[2])


EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 41])
def test_block_inverse_matches_the_general_inverse(d):
    # orders on each side of the INV_BLOCK = 8 edge.  Tolerance, set from
    # float64 before measuring: max |M - inv(L)| <= d eps cond(L) max |inv(L)|,
    # the first-order forward error of a triangular inverse (Higham 2002,
    # section 14.2).  Observed: 0 up to one block, at most 3.3e-3 of it above
    assert INV_BLOCK == 8
    for seed in range(10):
        rng = np.random.default_rng([d, seed])
        x = rng.standard_normal((2 * d + 10, d)) * np.logspace(0, 2, d)
        l = np.linalg.cholesky(x.T @ x)
        ref = np.linalg.inv(l)
        got = _lower_inverse(l[None])[0]
        assert np.max(np.abs(got - ref)) <= d * EPS * np.linalg.cond(l) * np.max(np.abs(ref))
        if d <= INV_BLOCK:
            assert np.array_equal(got, ref)
        assert np.array_equal(factorize(x).inv, got)


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


@pytest.mark.parametrize("layout", ["C", "rows of x'"])
def test_stacked_block_inverse_gives_each_design_its_own_factor(layout):
    # designs of 41 columns, six diagonal blocks: each member of a stack is
    # bit for bit its design factored alone, in C order and in the layout
    # that ConditionalFits gathers (the transpose of C-contiguous rows)
    rng = np.random.default_rng(34)
    stack = rng.standard_normal((5, 90, 41)) * np.logspace(0, 2, 41)
    stack[1, :, 30] = stack[1, :, 29] + 1e-7 * rng.standard_normal(90)  # refused
    if layout != "C":
        stack = np.ascontiguousarray(stack.swapaxes(-1, -2)).swapaxes(-1, -2)
    factors = factorize(stack)
    assert [f.inv is None for f in factors] == [False, True, False, False, False]
    for x, factor in zip(stack, factors):
        assert _same_factor(factor, factorize(x))


def test_overflowing_block_inverse_is_refused_without_a_warning():
    # x = H B for 64 rows of a Hadamard matrix and B upper bidiagonal (2^-20
    # on the diagonal, 1 above it): x'x = 64 B'B and its Cholesky factor 8 B'
    # are exact, and inv(8 B') has entries up to 2^(20 * 60) / 8, which
    # overflow inside the block products.  Under -W error nothing warns, and
    # the design is refused alone and in a stack; its fit goes to lstsq
    h = np.ones((1, 1))
    for _ in range(6):
        h = np.kron(h, [[1.0, 1.0], [1.0, -1.0]])
    d = 60
    b = 2.0**-20 * np.eye(d) + np.eye(d, k=1)
    x = h[:, :d] @ b
    assert np.array_equal(np.linalg.cholesky(x.T @ x), 8 * b.T)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(_lower_inverse(8 * b.T[None])).all()
    rng = np.random.default_rng(35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert factorize(x).inv is None
        assert [f.inv is None for f in factorize(np.stack([rng.standard_normal((64, d)), x]))] == [False, True]
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
    # every class fit goes through ConditionalFits._fits: a second fit path
    # would be a second call site of one of these solvers
    source = inspect.getsource(ConditionalFits)
    for name in ("fit_span", "fit_l1", "factorize"):
        assert len(re.findall(rf"\b{name}\(", source)) == 1, name


def test_least_squares_solvers_live_in_linalg():
    # every linear solve, factorization and rank decision lives in _linalg
    package = Path(semorder.__file__).parent
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
    # columns, 46.4 MB as one array; the engine folds it in chunks
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
    assert len(fits._memo) == p * 2 ** (p - 1)
    assert peak < n * (1 + p * 6 + p) * 8 / 4


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


def test_sigma_table_rows_equal_per_entry_fits(monkeypatch):
    # The one fit path factors each stack of designs once; every span entry
    # must equal fit_span on the same engine design without a factor, and
    # every l1 entry fit_l1 on it, bit for bit, flags included.  x5 repeats
    # x4, so the piecewise-constant designs holding both are rank-deficient
    # and take the gelsd path; its 10 cells on (-5, 5) leave the outer ones
    # empty.
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
        assert len(fits._memo) == p * 2 ** (p - 1)
        got, ref = [], []
        for (v, mask), entry in sorted(fits._memo.items()):
            design, lost = fits._design(mask)
            y = fits._targets[:, v]
            if design is None:
                rv, degenerate = float(np.mean(y * y)), False
            elif class_spec.kind == "l1" and mask:
                budget = class_spec.total_budget(mask.bit_count())
                rv, degenerate = fit_l1(design, y, budget, intercept=class_spec.intercept).residual_variance, False
            else:
                before = calls[0]
                fit = fit_span(design, y)
                fallback += calls[0] > before
                rv, degenerate = fit.residual_variance, fit.degenerate or lost
            floor = fits._floor[v]
            got.append(entry)
            ref.append((max(rv, floor), rv < floor, degenerate))
        got, ref = np.array(got), np.array(ref)
        for col in range(3):
            assert np.array_equal(got[:, col], ref[:, col])
        if class_spec.dictionary.family == PIECEWISE_CONSTANT:
            assert got[:, 2].any()
    assert fallback > 0


def test_sigma_table_is_the_same_whatever_the_stack_bound(monkeypatch):
    # STACK_BYTES only bounds how many same-width designs one gather and one
    # factorize take: stacks of one design, and stacks of three that leave
    # the last stack of a width partial, give the default table bit for bit
    values = _chain_with_a_copy()
    p = values.shape[1]
    classes = [
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0))),
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), intercept=False),
        ClassSpec(Dictionary(PIECEWISE_CONSTANT, 10, (-5.0, 5.0))),
        ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), kind="l1", budget=2.0),
    ]
    stacks = []
    real = ConditionalFits._gather

    def recorded(self, cols):
        stacks.append(cols.shape)
        return real(self, cols)

    full = (1 << p) - 1
    for class_spec in classes:
        default = ConditionalFits(values, class_spec)
        default.best_order([0] * p)
        if class_spec.dictionary.family == PIECEWISE_CONSTANT:
            assert any(degenerate for _, _, degenerate in default._memo.values())  # a block lost a column
        m = default._c.shape[0]
        widest = max(len(default._columns(full & ~(1 << v))[0]) for v in range(p))
        for bound in (1, 3 * 8 * m * widest):
            monkeypatch.setattr(regress, "STACK_BYTES", bound)
            monkeypatch.setattr(ConditionalFits, "_gather", recorded)
            stacks.clear()
            fits = ConditionalFits(values, class_spec)
            fits.best_order([0] * p)
            monkeypatch.undo()
            if bound == 1:
                assert {shape[0] for shape in stacks} == {1}
            else:  # the widest designs: stacks of three, then a partial one
                sizes = [shape[0] for shape in stacks if shape[-1] == widest]
                assert sizes[0] == 3 and sizes[-1] < 3
            assert fits._memo.keys() == default._memo.keys()
            for key, entry in default._memo.items():
                assert fits._memo[key] == entry


def test_sigma_table_factors_each_predictor_set_once(monkeypatch):
    # counts designs factored: a stacked call factors one per leading index
    factors = [0]
    real = regress.factorize

    def counted(x):
        factors[0] += math.prod(x.shape[:-2])
        return real(x)

    monkeypatch.setattr(regress, "factorize", counted)
    solves = _counting(monkeypatch, regress, "fit_span")
    p = 5
    values = np.random.default_rng(23).standard_normal((200, p))
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0)))
    # exact search: one factorization per predictor set short of all p,
    # one solve per (variable, set) entry
    ConditionalFits(values, cs).best_order([0] * p)
    assert (factors[0], solves[0]) == (2**p - 1, p * 2 ** (p - 1))
    # greedy: one factorization per step, one solve per unplaced variable
    factors[0] = solves[0] = 0
    fits = ConditionalFits(values, cs)
    semorder.order._greedy_from_cache(fits)
    assert (factors[0], solves[0]) == (p, p * (p + 1) // 2)
    # a chain has one allowed order: one factorization and one solve per position
    factors[0] = solves[0] = 0
    fits = ConditionalFits(values, cs)
    assert fits.best_order([0] + [1 << (v - 1) for v in range(1, p)]) == tuple(range(p))
    assert (factors[0], solves[0], len(fits._memo)) == (p, p, p)


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
    assert not fits._memo
    fits.sigma(0, 0b110)


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
    # even when it alone carries y: both fits drop it, and the l1 fit reports
    # that its KKT residual, which still sees the column, is not met
    rng = np.random.default_rng(14)
    z, u = rng.standard_normal((2, 40))
    u -= z * (z @ u) / (z @ z)
    x = np.column_stack([1e6 * u, 1e-5 * z])
    with pytest.warns(RuntimeWarning, match="KKT"):
        fit = fit_l1(x, z, 1e9)
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
    # the oracle sample goes through one ConditionalFits, which folds its
    # basis in chunks: the peak stays below 12 floats per oracle row
    # (observed 7.2 MB; holding the full 200,000 x 7 design with its basis
    # and products peaked at 40.8 MB)
    oracle_n = 200_000
    cls = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-1.0, 1.0)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        misspec_experiment(cubic_truth(), cls, n_grid=[256], reps=2, oracle_n=oracle_n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < oracle_n * 8 * 12


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

