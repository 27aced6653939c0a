import numpy as np
import pytest

from semorder.dictionary import (
    CUBIC_B_SPLINE,
    PIECEWISE_CONSTANT,
    TRIGONOMETRIC,
    Dictionary,
    basis_matrix,
    design_matrix,
    eval_basis,
    moment_matrix,
    moment_vector,
)
from semorder.errors import UsageError

import oracles

FAMILIES = [PIECEWISE_CONSTANT, CUBIC_B_SPLINE, TRIGONOMETRIC]


def test_piecewise_constant_indicator_values():
    d = Dictionary(PIECEWISE_CONSTANT, 2, (0.0, 1.0))
    assert eval_basis(d, 1, 0.25) == 1.0
    assert eval_basis(d, 1, 0.75) == 0.0
    assert eval_basis(d, 2, 0.75) == 1.0
    # last interval is closed on the right
    assert eval_basis(d, 2, 1.0) == 1.0


def test_trigonometric_at_left_endpoint():
    d = Dictionary(TRIGONOMETRIC, 3, (0.0, 1.0))
    assert eval_basis(d, 1, 0.0) == 1.0


def test_spline_partition_of_unity_at_point():
    d = Dictionary(CUBIC_B_SPLINE, 6, (0.0, 1.0))
    total = sum(eval_basis(d, r, 0.37) for r in range(1, 7))
    assert abs(total - 1.0) <= 1e-10


@pytest.mark.parametrize("domain", [(-5.0, 5.0), (0.0, 1.0), (-1.0, 3.7), (1e-3, 2e-3)])
@pytest.mark.parametrize("size", [4, 5, 6, 9, 17])
def test_spline_basis_equals_scipy_bit_for_bit(size, domain):
    interpolate = pytest.importorskip("scipy.interpolate")
    d = Dictionary(CUBIC_B_SPLINE, size, domain)
    t = d.knots()
    rng = np.random.default_rng(size)
    x = np.concatenate([
        rng.uniform(*domain, 2000),
        t,
        np.nextafter(t, -np.inf),
        np.nextafter(t, np.inf),
        domain,
    ])
    x = d.clamp(x)
    ours = basis_matrix(d, x)
    ref = interpolate.BSpline.design_matrix(x, t, 3).toarray()
    assert np.array_equal(ours, ref)


def _probe_points(d, n_random, seed):
    """Random points of the domain, each breakpoint of the family and one ulp either side, and points that clamp."""
    a, b = d.domain
    breaks = d.knots() if d.family == CUBIC_B_SPLINE else np.linspace(a, b, d.size + 1)
    return np.concatenate([
        np.random.default_rng(seed).uniform(a, b, n_random),
        breaks,
        np.nextafter(breaks, -np.inf),
        np.nextafter(breaks, np.inf),
        [a - 1.0, b + 1.0, -np.inf, np.inf],
    ])


@pytest.mark.parametrize("domain", [(-5.0, 5.0), (0.0, 1.0), (-1.0, 3.7), (1e-3, 2e-3)])
@pytest.mark.parametrize("size", [4, 5, 6, 9, 17])
def test_spline_basis_equals_fpbspl_transcription_bit_for_bit(size, domain):
    d = Dictionary(CUBIC_B_SPLINE, size, domain)
    x = d.clamp(_probe_points(d, 300, size))
    ref = oracles.cubic_spline_basis(d.knots(), x)
    assert np.array_equal(basis_matrix(d, x), ref)
    assert np.array_equal(basis_matrix(d, np.stack([x, x[::-1]], axis=1)), np.hstack([ref, ref[::-1]]))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("size", [4, 7])
def test_2d_basis_matrix_equals_per_column_hstack(family, size):
    d = Dictionary(family, size, (-1.0, 3.7))
    x = _probe_points(d, 200, size)
    cols = np.stack([x, np.random.default_rng(size).permutation(x), x[::-1]], axis=1)
    two = basis_matrix(d, cols)
    assert two.shape == (x.size, 3 * size)
    assert np.array_equal(two, np.hstack([basis_matrix(d, cols[:, k]) for k in range(3)]))


@pytest.mark.parametrize("family", FAMILIES)
def test_basis_shapes_of_2d_and_nd_points(family):
    d = Dictionary(family, 5, (0.0, 1.0))
    x = np.linspace(0.0, 1.0, 10).reshape(5, 2)
    assert basis_matrix(d, x).shape == (5, 10)
    assert basis_matrix(d, x[:0]).shape == (0, 10)
    assert eval_basis(d, 2, x).shape == (5, 2)
    grid = np.linspace(0.0, 1.0, 24).reshape(2, 3, 4)
    vals = eval_basis(d, 2, grid)
    assert vals.shape == grid.shape
    assert np.array_equal(vals.ravel(), basis_matrix(d, grid.ravel())[:, 1])
    with pytest.raises(UsageError):
        basis_matrix(d, grid)


@pytest.mark.parametrize("family", FAMILIES)
def test_nan_points_rejected_and_infinities_clamped(family):
    d = Dictionary(family, 5, (-1.0, 2.0))
    for x in (np.nan, [0.5, np.nan], [[0.5, 0.1], [np.nan, 0.2]]):
        with pytest.raises(UsageError):
            basis_matrix(d, x)
    with pytest.raises(UsageError):
        eval_basis(d, 1, np.nan)
    assert np.array_equal(basis_matrix(d, [-np.inf, np.inf]), basis_matrix(d, [-1.0, 2.0]))


def test_spline_partition_of_unity_on_grid():
    d = Dictionary(CUBIC_B_SPLINE, 8, (-2.0, 3.0))
    x = np.linspace(-2.0, 3.0, 1001)
    sums = basis_matrix(d, x).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-10


@pytest.mark.parametrize("family", FAMILIES)
def test_eval_basis_index_validation(family):
    d = Dictionary(family, 4, (0.0, 1.0))
    with pytest.raises(UsageError):
        eval_basis(d, 0, 0.5)
    with pytest.raises(UsageError):
        eval_basis(d, 5, 0.5)


@pytest.mark.parametrize("family", FAMILIES)
def test_entries_bounded_and_clamped(family):
    # values far outside the domain must clamp, keeping the envelope bound
    d = Dictionary(family, 5, (-1.0, 2.0))
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 10.0, 400)
    mat = basis_matrix(d, x)
    assert np.all(np.abs(mat) <= d.sup_bound + 1e-12)
    lo = basis_matrix(d, np.array([-1.0, -50.0]))
    assert np.array_equal(lo[0], lo[1])
    hi = basis_matrix(d, np.array([2.0, 50.0]))
    assert np.array_equal(hi[0], hi[1])


def test_design_matrix_pc_one_column():
    d = Dictionary(PIECEWISE_CONSTANT, 2, (0.0, 1.0))
    out = design_matrix(d, [np.array([0.25, 0.75])], intercept=False)
    assert np.array_equal(out, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_design_matrix_no_columns_intercept():
    d = Dictionary(PIECEWISE_CONSTANT, 2, (0.0, 1.0))
    out = design_matrix(d, [], intercept=True, n_rows=3)
    assert np.array_equal(out, np.ones((3, 1)))


def test_design_matrix_width():
    d = Dictionary(TRIGONOMETRIC, 3, (0.0, 1.0))
    cols = [np.zeros(5), np.ones(5)]
    assert design_matrix(d, cols, intercept=True).shape == (5, 7)


def test_design_matrix_empty_without_intercept_rejected():
    d = Dictionary(TRIGONOMETRIC, 3, (0.0, 1.0))
    with pytest.raises(UsageError):
        design_matrix(d, [], intercept=False, n_rows=3)


def test_design_matrix_column_order_stability():
    d = Dictionary(CUBIC_B_SPLINE, 4, (0.0, 1.0))
    rng = np.random.default_rng(11)
    a, b = rng.random(20), rng.random(20)
    fwd = design_matrix(d, [a, b], intercept=True)
    swp = design_matrix(d, [b, a], intercept=True)
    assert np.array_equal(fwd[:, 0], swp[:, 0])
    assert np.array_equal(fwd[:, 1:5], swp[:, 5:9])
    assert np.array_equal(fwd[:, 5:9], swp[:, 1:5])


@pytest.mark.parametrize(
    "family,size,domain",
    [
        (PIECEWISE_CONSTANT, 4, (0.0, 1.0)),
        (PIECEWISE_CONSTANT, 7, (-2.0, 5.0)),
        (CUBIC_B_SPLINE, 6, (0.0, 1.0)),
        (CUBIC_B_SPLINE, 9, (-1.0, 4.0)),
        (TRIGONOMETRIC, 5, (0.0, 1.0)),
        (TRIGONOMETRIC, 3, (-3.0, 3.0)),
    ],
)
def test_moment_matrix_against_quadrature(family, size, domain):
    d = Dictionary(family, size, domain)
    assert np.max(np.abs(moment_matrix(d) - oracles.numeric_moment_matrix(d))) <= 1e-6
    assert np.max(np.abs(moment_vector(d) - oracles.numeric_moment_vector(d))) <= 1e-6


def test_trig_moments_closed_form():
    d = Dictionary(TRIGONOMETRIC, 4, (2.0, 7.0))
    assert np.allclose(moment_matrix(d), np.eye(4) / 2.0, atol=1e-12)
    assert np.allclose(moment_vector(d), np.zeros(4), atol=1e-12)


def test_pc_moments_closed_form():
    d = Dictionary(PIECEWISE_CONSTANT, 5, (-1.0, 3.0))
    assert np.allclose(moment_matrix(d), np.eye(5) / 5.0, atol=1e-15)
    assert np.allclose(moment_vector(d), np.full(5, 0.2), atol=1e-15)


def test_dictionary_validation():
    with pytest.raises(UsageError):
        Dictionary("unknown", 3, (0.0, 1.0))
    with pytest.raises(UsageError):
        Dictionary(TRIGONOMETRIC, 0, (0.0, 1.0))
    with pytest.raises(UsageError):
        Dictionary(TRIGONOMETRIC, 3, (1.0, 1.0))
    # spline needs at least 4 basis functions for a cubic space
    with pytest.raises(UsageError):
        Dictionary(CUBIC_B_SPLINE, 3, (0.0, 1.0))
    # a width that overflows, and breakpoints that collapse onto each other
    with pytest.raises(UsageError):
        Dictionary(TRIGONOMETRIC, 3, (-1e308, 1e308))
    with pytest.raises(UsageError):
        Dictionary(CUBIC_B_SPLINE, 24, (0.0, 1e-322))


def test_config_round_trip():
    d = Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0))
    assert Dictionary.from_config(d.to_config()) == d
    cfg = d.to_config()
    assert cfg["family"] == CUBIC_B_SPLINE and cfg["size"] == 6 and cfg["domain"] == [-5.0, 5.0]


def test_scalar_eval_matches_matrix():
    d = Dictionary(CUBIC_B_SPLINE, 5, (0.0, 2.0))
    x = np.array([0.3, 1.7])
    mat = basis_matrix(d, x)
    for r in range(1, 6):
        assert eval_basis(d, r, 0.3) == mat[0, r - 1]
        assert eval_basis(d, r, 1.7) == mat[1, r - 1]
