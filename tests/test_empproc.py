import itertools
import math

import numpy as np
import pytest

from semorder import empproc
from semorder._linalg import gen_eigh, whitener
from semorder.dictionary import CUBIC_B_SPLINE, PIECEWISE_CONSTANT, TRIGONOMETRIC, Dictionary, basis_matrix, moment_matrix, moment_vector
from semorder.empproc import (
    EPS,
    MomentPair,
    additive_population_moments,
    case5_tradeoff,
    check_eigenvalue_cond,
    check_incoherence,
    delta_n,
    entropy_bound_l1,
    inner_product_sup,
    j_integral_l1,
    lambda_min,
    loglog_slope,
    rademacher_diagnostic,
    rate_experiment,
    subgauss_product_sup,
    z_sup_ellipsoid,
    z_sup_l1,
)
from semorder.errors import DegeneracyError, UsageError

import oracles


def random_pair(rng, d, scale=0.1):
    a = rng.standard_normal((d, d))
    sigma = a @ a.T / d + np.eye(d)
    delta = rng.standard_normal((d, d)) * scale
    delta = (delta + delta.T) / 2.0
    return MomentPair(sigma + delta, sigma)


def test_gen_eigh_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(40)
    for d in (1, 2, 3, 5, 8, 13, 21, 30):
        for _ in range(5):
            g = rng.standard_normal((d, d))
            a = g + g.T
            h = rng.standard_normal((d, 2 * d))
            b = h @ h.T / (2 * d) + 1e-3 * np.eye(d)
            w, v = gen_eigh(a, whitener(*np.linalg.eigh(b)))
            ref = linalg.eigh(a, b, eigvals_only=True)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.allclose(v.T @ b @ v, np.eye(d), rtol=0, atol=1e-12)
            assert np.allclose(a @ v, (b @ v) * w, rtol=0, atol=1e-10 * np.max(np.abs(ref)))


def test_gen_eigh_rejects_indefinite_b():
    # gen_eigh takes b through its whitener, which enforces the PD rule
    with pytest.raises(DegeneracyError, match="Lambda_min"):
        gen_eigh(np.eye(2), whitener(*np.linalg.eigh(np.array([[1.0, 0.0], [0.0, -1.0]]))))


def test_z_sup_ellipsoid_zero_and_scalar():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert z_sup_ellipsoid(MomentPair(sigma, sigma)) == 0.0
    assert abs(z_sup_ellipsoid(MomentPair(np.array([[1.2]]), np.array([[1.0]]))) - 0.2) <= 1e-14


def test_z_sup_ellipsoid_against_direction_scan():
    rng = np.random.default_rng(23)
    for i in range(5):
        mp = random_pair(rng, 3)
        z, direction = z_sup_ellipsoid(mp, return_direction=True)
        scan, _ = oracles.scan_quadratic_ellipsoid(mp.sigma_hat - mp.sigma, mp.sigma, seed=100 + i)
        assert z >= scan - 1e-9
        assert z - scan <= 1e-3
        # the closed form is attained at its own eigenvector direction
        num = abs(direction @ ((mp.sigma_hat - mp.sigma) @ direction))
        den = direction @ (mp.sigma @ direction)
        assert abs(num / den - z) <= 1e-6


def test_z_sup_ellipsoid_congruence_invariance():
    rng = np.random.default_rng(24)
    mp = random_pair(rng, 4)
    z = z_sup_ellipsoid(mp)
    for _ in range(5):
        t = rng.standard_normal((4, 4))
        while abs(np.linalg.det(t)) < 0.3:
            t = rng.standard_normal((4, 4))
        mp_t = MomentPair(t.T @ mp.sigma_hat @ t, t.T @ mp.sigma @ t)
        assert abs(z_sup_ellipsoid(mp_t) - z) <= 1e-8


def test_z_sup_ellipsoid_singular_sigma_names_lambda_min():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    mp = MomentPair(sigma + 0.1 * np.eye(2), sigma)
    with pytest.raises(DegeneracyError, match="Lambda_min"):
        z_sup_ellipsoid(mp)
    with pytest.raises(DegeneracyError, match="Lambda_min"):  # the l1 supremum takes Sigma by the same rule
        z_sup_l1(mp, 1.0)


def test_z_sup_l1_zero_when_moments_match():
    sigma = np.array([[1.0, 0.2], [0.2, 0.5]])
    assert z_sup_l1(MomentPair(sigma, sigma), budget=1.0) == 0.0


def test_z_sup_l1_inactive_budget_matches_ellipsoid():
    rng = np.random.default_rng(25)
    for _ in range(5):
        mp = random_pair(rng, 3)
        z_ell = z_sup_ellipsoid(mp)
        for budget in (1e6, 1e300):  # the extreme budget must not overflow into warnings
            assert abs(z_sup_l1(mp, budget=budget) - z_ell) <= 1e-10 * z_ell


def test_z_sup_l1_small_budget_matches_grid():
    # crafted indefinite difference, budget small enough to bind
    sigma = np.array([[1.0, 0.1], [0.1, 0.8]])
    delta = np.array([[0.3, 0.05], [0.05, -0.25]])
    mp = MomentPair(sigma + delta, sigma)
    for budget in (0.3, 0.7, 1.1):
        z = z_sup_l1(mp, budget=budget)
        grid = oracles.grid_l1_ellipsoid_quadratic_d2(delta, sigma, budget)
        assert abs(z - grid) <= 1e-3
        assert z >= grid - 1e-11  # the exact maximum may only exceed the grid


def test_z_sup_l1_below_ellipsoid():
    rng = np.random.default_rng(26)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        mp = random_pair(rng, d)
        budget = float(rng.uniform(0.2, 3.0))
        assert z_sup_l1(mp, budget) <= z_sup_ellipsoid(mp) + 1e-8


def test_z_sup_l1_bracket_on_below_ellipsoid_seeds():
    rng = np.random.default_rng(26)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        mp = random_pair(rng, d)
        budget = float(rng.uniform(0.2, 3.0))
        val, det = z_sup_l1(mp, budget, return_details=True)
        delta = mp.sigma_hat - mp.sigma
        l1_bound = budget * budget * float(np.max(np.abs(delta)))
        assert det["upper"] == pytest.approx(min(z_sup_ellipsoid(mp), l1_bound), rel=1e-12)
        assert val <= det["upper"]
        b = det["argmax"]
        assert np.abs(b).sum() <= budget and b @ mp.sigma @ b <= 1.0
        assert abs(b @ delta @ b) == pytest.approx(val, rel=1e-12)


def _d2_battery():
    """360 d=2 problems: scalar, tied and diagonal differences, correlations up to 0.999, budgets 0.3 to 3."""
    deltas = [
        0.3 * np.eye(2),
        -0.2 * np.eye(2),
        np.diag([0.3, -0.25]),
        np.diag([0.2, 0.05]),
        np.array([[0.2, 0.1], [0.1, 0.2]]),
        np.array([[0.1, -0.3], [-0.3, 0.1]]),
    ]
    for delta in deltas:
        for rho in (0.0, 0.5, 0.9, 0.99, 0.995, 0.999):
            for var2 in (1.0, 0.5):
                cov = rho * math.sqrt(var2)
                sigma = np.array([[1.0, cov], [cov, var2]])
                for budget in (0.3, 0.7, 1.1, 2.0, 3.0):
                    yield delta, sigma, budget


def test_z_sup_l1_d2_battery_reaches_the_grid():
    # the grid undershoots the maximum (by up to 1.9e-4 here, on elongated sets),
    # so the check is one-sided; Delta proportional to I with correlation
    # 0.999 needs the hard case of the both-active family
    cases = list(_d2_battery())
    assert len(cases) == 360
    for delta, sigma, budget in cases:
        mp = MomentPair(sigma + delta, sigma)
        z = z_sup_l1(mp, budget)
        assert z >= oracles.grid_l1_ellipsoid_quadratic_d2(delta, sigma, budget) * (1.0 - 1e-10)
        assert z <= z_sup_ellipsoid(mp) + 1e-8


def test_z_sup_l1_dominates_random_directions():
    # random dense and sparse directions at d = 3..6; the sparse ones hit the
    # vertices exactly, where the value's 1 - 1e-12 shrink costs 2e-12
    rng = np.random.default_rng(34)
    for i in range(40):
        d = 3 + i % 4
        mp = random_pair(rng, d, scale=0.2)
        budget = float(rng.uniform(0.2, 3.0))
        scan = oracles.scan_l1_ellipsoid_quadratic(mp.sigma_hat - mp.sigma, mp.sigma, budget, seed=i)
        assert z_sup_l1(mp, budget) >= scan * (1.0 - 1e-11)


def _reach_battery():
    """75 seeded problems at d = 2..6 whose budgets straddle ``M^2 max Sigma_ii = 1``.

    Per d: a diagonal Sigma, a dense one, and one with diagonals spread over
    a factor 20; a symmetric difference of scale 0.1; budgets 0.5, 0.9, 1.1,
    1.6 and 2.5 over ``sqrt(max Sigma_ii)``.
    """
    rng = np.random.default_rng(32)
    for d in range(2, 7):
        a, b = rng.standard_normal((2, d, d))
        sigmas = (
            np.diag(rng.uniform(0.3, 0.7, d)),
            a @ a.T / d + 0.5 * np.eye(d),
            np.diag(np.geomspace(0.1, 2.0, d)) + 0.05 * b @ b.T / d,
        )
        for sigma in sigmas:
            delta = rng.standard_normal((d, d)) * 0.1
            mp = MomentPair(sigma + (delta + delta.T) / 2.0, sigma)
            for c in (0.5, 0.9, 1.1, 1.6, 2.5):
                yield mp, c / np.sqrt(sigma.diagonal().max())


# z_sup_l1 on _reach_battery, as computed when family (c) was solved on every face
REACH_BATTERY_VALUES = [
    0.025850478233922076, 0.0837555494779075, 0.12511631465218284,
    0.1883528689730825, 0.1883528689730825, 0.009053838250288758,
    0.029334435930935567, 0.038948149473597, 0.04481174343349672,
    0.04481174343349672, 0.008022463781615889, 0.025992782652435483,
    0.038828724703020914, 0.08215002912374672, 0.2005615945403972,
    0.05101972260518514, 0.1653039012407999, 0.2218615980435307,
    0.27252412137394916, 0.27252412137394916, 0.00510239492712433,
    0.016531759563882836, 0.024695591447281767, 0.05224852405375315,
    0.10268207815272733, 0.016217202913607315, 0.052543737440087696,
    0.07849126210185942, 0.16606415783533887, 0.3004598119443354,
    0.0649658710271877, 0.2104894221280882, 0.3144348157715885,
    0.3923384749995772, 0.41365595743195005, 0.02016200178877644,
    0.06532488579563567, 0.09758408865767798, 0.19661410070500537,
    0.31998449663865736, 0.020899096442155807, 0.06771307247258479,
    0.10115162678003409, 0.21400674756767546, 0.40045397338438476,
    0.029947013172849604, 0.0970283226800327, 0.14494354375659207,
    0.28484845783615365, 0.3692420752633989, 0.01446877631881218,
    0.04687883527295149, 0.07002887738305098, 0.14816026950463682,
    0.19044139336143065, 0.02234153097481108, 0.0723865603583879,
    0.10813300991808562, 0.22877727718206547, 0.5585382743702769,
    0.05636609818526552, 0.1826261581202603, 0.27281191521668513,
    0.4673439971313348, 0.6234561298787069, 0.029879598123236463,
    0.09680989791928611, 0.1394053781568175, 0.20104928063988683,
    0.2519740335706988, 0.017467788450855122, 0.056595634580770604,
    0.08454409610213882, 0.15851847458337176, 0.3870079945883099,
]


def test_z_sup_l1_keeps_its_values_on_the_reach_battery():
    # no vertex reaches the ellipsoid, some do, or all do
    reach = {"none": 0, "some": 0, "all": 0}
    for (mp, budget), pinned in zip(_reach_battery(), REACH_BATTERY_VALUES, strict=True):
        vertex = budget * budget * mp.sigma.diagonal() >= 1.0
        reach["all" if vertex.all() else "some" if vertex.any() else "none"] += 1
        assert abs(z_sup_l1(mp, budget) - pinned) <= 1e-13 * pinned
    assert reach == {"none": 30, "some": 27, "all": 18}


def _spy_both_active(monkeypatch, sigma):
    """Record the support of every block that ``empproc._both_active`` receives, read off Sigma's distinct diagonal."""
    index = {v: i for i, v in enumerate(sigma.diagonal())}
    seen = []
    real = empproc._both_active

    def spy(d_tt, s_tt, signs, budget):
        seen.extend(tuple(index[v] for v in block.diagonal()) for block in s_tt)
        return real(d_tt, s_tt, signs, budget)

    monkeypatch.setattr(empproc, "_both_active", spy)
    return seen


def test_z_sup_l1_skips_both_active_where_no_vertex_reaches(monkeypatch):
    # the rates-l1 shape: Sigma = I/2 and M = 1 keep the whole l1 ball inside the ellipsoid
    sigma = additive_population_moments(Dictionary(TRIGONOMETRIC, 3, (0.0, 1.0)), 2)
    assert np.array_equal(sigma, np.eye(6) / 2.0)
    feats = basis_matrix(Dictionary(TRIGONOMETRIC, 3, (0.0, 1.0)), np.random.default_rng(5).uniform(0.0, 1.0, (500, 2)))
    mp = MomentPair(feats.T @ feats / 500, sigma)
    seen = _spy_both_active(monkeypatch, np.diag(np.arange(6.0)))
    z = z_sup_l1(mp, 1.0)
    assert seen == []
    assert z >= oracles.scan_l1_ellipsoid_quadratic(mp.sigma_hat - mp.sigma, sigma, 1.0) * (1.0 - 1e-11)


def test_z_sup_l1_solves_both_active_on_exactly_the_reaching_supports(monkeypatch):
    # mixed diagonals: at M = 1 a support reaches when it holds index 3 or 4
    rng = np.random.default_rng(6)
    b = rng.standard_normal((5, 5))
    sigma = np.diag([0.2, 0.45, 0.7, 1.3, 2.1]) + 0.02 * b @ b.T
    delta = rng.standard_normal((5, 5)) * 0.1
    mp = MomentPair(sigma + (delta + delta.T) / 2.0, sigma)
    seen = _spy_both_active(monkeypatch, mp.sigma)
    z = z_sup_l1(mp, 1.0)
    reaching = [t for k in range(2, 6) for t in itertools.combinations(range(5), k) if {3, 4} & set(t)]
    assert seen == reaching
    assert z >= oracles.scan_l1_ellipsoid_quadratic(mp.sigma_hat - mp.sigma, mp.sigma, 1.0) * (1.0 - 1e-11)


@pytest.mark.parametrize("ulps", [-6, -2, -1, 0, 1, 2, 6])
def test_z_sup_l1_meets_the_oracles_where_a_vertex_touches_the_ellipsoid(ulps):
    # the budget `ulps` ulps off 1 / sqrt(max Sigma_ii): the top vertex sits
    # on the ellipsoid's boundary to a few ulps, on both sides of the reach
    # rule's 8-ulp margin
    rng = np.random.default_rng(7 + ulps)
    for d in range(2, 6):
        b = rng.standard_normal((d, d))
        sigma = np.diag(np.linspace(0.3, 0.9, d)) + 0.05 * b @ b.T / d
        budget = 1.0 / math.sqrt(sigma.diagonal().max())
        for _ in range(abs(ulps)):
            budget = float(np.nextafter(budget, math.copysign(math.inf, ulps)))
        assert abs(budget * budget * sigma.diagonal().max() - 1.0) <= 16 * EPS
        delta = rng.standard_normal((d, d)) * 0.2
        delta = (delta + delta.T) / 2.0
        mp = MomentPair(sigma + delta, sigma)
        z = z_sup_l1(mp, budget)
        assert z <= z_sup_ellipsoid(mp) + 1e-8
        if d == 2:
            assert z >= oracles.grid_l1_ellipsoid_quadratic_d2(delta, sigma, budget) * (1.0 - 1e-10)
        else:
            assert z >= oracles.scan_l1_ellipsoid_quadratic(delta, sigma, budget, seed=d) * (1.0 - 1e-11)


def test_moment_pair_validation():
    with pytest.raises(UsageError):
        MomentPair(np.array([[1.0, 0.2], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(UsageError):
        MomentPair(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite population
    with pytest.raises(UsageError, match="finite"):
        MomentPair(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_moment_matrices_are_usage_errors(bad):
    m = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(UsageError, match="finite"):
        lambda_min(m)
    c = np.zeros((2, 1))
    with pytest.raises(UsageError, match="finite"):
        inner_product_sup(c, c, m, np.eye(1), 1.0, 1.0)
    with pytest.raises(UsageError, match="finite"):
        inner_product_sup(np.full((2, 1), bad), c, np.eye(2), np.eye(1), 1.0, 1.0)


def test_inner_product_sup_zero_and_scalar():
    sf = np.array([[2.0]])
    sg = np.array([[0.5]])
    c = np.array([[0.7]])
    assert inner_product_sup(c, c, sf, sg, 1.0, 1.0) == 0.0
    got = inner_product_sup(np.array([[0.9]]), c, sf, sg, 2.0, 3.0)
    assert abs(got - 2.0 * 3.0 * 0.2 / math.sqrt(2.0 * 0.5)) <= 1e-12


def test_inner_product_sup_against_scan():
    rng = np.random.default_rng(27)
    af = rng.standard_normal((3, 3))
    sf = af @ af.T / 3.0 + np.eye(3)
    ag = rng.standard_normal((2, 2))
    sg = ag @ ag.T / 2.0 + np.eye(2)
    c = rng.standard_normal((3, 2)) * 0.5
    diff = rng.standard_normal((3, 2)) * 0.1
    got = inner_product_sup(c + diff, c, sf, sg, 1.0, 1.0)
    scan = oracles.scan_bilinear_two_ellipsoids(diff, sf, sg, 1.0, 1.0, seed=5)
    assert got >= scan - 1e-9
    assert got - scan <= 1e-3


def test_inner_product_sup_bilinear_in_radii():
    rng = np.random.default_rng(28)
    sf = np.eye(3)
    sg = np.eye(2)
    c = rng.standard_normal((3, 2))
    base = inner_product_sup(c, np.zeros((3, 2)), sf, sg, 1.0, 1.0)
    assert inner_product_sup(c, np.zeros((3, 2)), sf, sg, 2.5, 1.0) == pytest.approx(2.5 * base, rel=1e-12)
    assert inner_product_sup(c, np.zeros((3, 2)), sf, sg, 1.0, 4.0) == pytest.approx(4.0 * base, rel=1e-12)


def test_subgauss_product_sup_zero_and_scalar():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((100, 1))
    y = rng.standard_normal(100)
    sigma = np.array([[1.0]])
    m_match = np.array([float(x[:, 0] @ y) / 100.0])
    assert subgauss_product_sup(x, y, sigma, m_match) <= 1e-15
    m = np.array([0.3])
    expected = abs(float(np.mean(x[:, 0] * y)) - 0.3) / 1.0
    assert abs(subgauss_product_sup(x, y, sigma, m) - expected) <= 1e-12


def test_subgauss_product_sup_against_scan():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((200, 3))
    y = x @ np.array([1.0, -0.5, 0.2]) + rng.standard_normal(200)
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T / 3.0 + np.eye(3)
    m = rng.standard_normal(3) * 0.1
    got = subgauss_product_sup(x, y, sigma, m)
    v = x.T @ y / 200 - m
    scan = oracles.scan_linear_ellipsoid(v, sigma, seed=7)
    assert got >= scan - 1e-9
    assert got - scan <= 1e-3


def test_rademacher_diagnostic_fixed_degenerate_data():
    data = np.full((50, 1), 2.0)
    mp = MomentPair(np.array([[4.0]]), np.array([[4.0]]))
    out = rademacher_diagnostic(data, mp, reps=60, seed=8)
    assert out.z_mean == 0.0
    assert out.z_eps_mean >= 0.0
    assert out.z_mean <= 2.0 * out.z_eps_mean + 3.0 * math.sqrt(out.z_se**2 + 4.0 * out.z_eps_se**2)


def test_rademacher_diagnostic_gaussian_inequality():
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    chol = np.linalg.cholesky(cov)

    def sampler(rng):
        return rng.standard_normal((200, 2)) @ chol.T

    out = rademacher_diagnostic(sampler, MomentPair(cov, cov), reps=200, seed=9)
    combined = math.sqrt(out.z_se**2 + 4.0 * out.z_eps_se**2)
    assert out.z_mean <= 2.0 * out.z_eps_mean + 3.0 * combined


def test_rademacher_diagnostic_reps_floor():
    data = np.full((10, 1), 1.0)
    mp = MomentPair(np.array([[1.0]]), np.array([[1.0]]))
    rademacher_diagnostic(data, mp, reps=30, seed=0)
    with pytest.raises(UsageError):
        rademacher_diagnostic(data, mp, reps=29, seed=0)


def test_entropy_bound_fixture():
    got = entropy_bound_l1(1.0, 2, 2, 1.0, 1.0)
    assert abs(got - (1.0 + 8.0 * math.log(4.0) ** 2)) <= 1e-10


def test_entropy_bound_envelope_and_scaling():
    assert entropy_bound_l1(1.0, 4, 100, 0.0, 1.0) == 1.0
    base = entropy_bound_l1(0.7, 3, 50, 1.2, 1.0) - 1.0
    doubled = entropy_bound_l1(0.7, 3, 50, 1.2, 2.0) - 1.0
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)


def test_j_integral_envelope_collapse():
    assert j_integral_l1(2, 16, 0.0, 1.0) == 0.0
    assert j_integral_l1(2, 16, 1.0, 0.0) == 0.0


def test_j_integral_fixture_against_trapezoid():
    got = j_integral_l1(2, 16, 1.0, 1.0)
    ref = oracles.trapezoid_j_value(2, 16, 1.0, 1.0)
    assert abs(got - ref) <= 1e-6
    # a second instance with nonunit envelope and budget
    got2 = j_integral_l1(5, 64, 1.5, 0.7)
    ref2 = oracles.trapezoid_j_value(5, 64, 1.5, 0.7)
    assert abs(got2 - ref2) <= 1e-6


def test_j_integral_monotone_in_n():
    assert j_integral_l1(2, 32, 1.0, 1.0) > j_integral_l1(2, 16, 1.0, 1.0)


def test_delta_n_fixture():
    dn = delta_n(1.0, 1.0, 4, 1000, 1.0)
    assert abs(dn * dn - 8.0 * math.log(4.0) / 1000.0) <= 1e-12


def test_delta_n_scalings():
    base = delta_n(1.0, 1.0, 4, 1000, 1.0)
    assert delta_n(1.0, 1.0, 4, 4000, 1.0) == pytest.approx(base / 2.0, rel=1e-12)
    assert delta_n(1.0, 1.0, 4, 1000, 2.0) == pytest.approx(base / 2.0, rel=1e-12)


def test_delta_n_degenerate_inputs():
    with pytest.warns(RuntimeWarning):
        assert delta_n(1.0, 1.0, 1, 1000, 1.0) == 0.0
    with pytest.raises(UsageError):
        delta_n(1.0, 1.0, 4, 1000, 0.0)


def test_check_incoherence_iid_blocks():
    base = np.array([[1.0, 0.2], [0.2, 0.5]])
    blocks = np.zeros((3, 3, 2, 2))
    for k in range(3):
        blocks[k, k] = base
    assert abs(check_incoherence(blocks) - 1.0) <= 1e-12


def test_check_incoherence_perfect_correlation():
    base = np.array([[1.0, 0.2], [0.2, 0.5]])
    p = 4
    blocks = np.tile(base, (p, p, 1, 1))
    assert abs(check_incoherence(blocks) - 1.0 / p) <= 1e-12


def test_check_incoherence_scan_attains():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((2, 2))
    s11 = float(a[0] @ a[0]) + 1.0
    s22 = float(a[1] @ a[1]) + 1.0
    s12 = float(a[0] @ a[1]) * 0.5
    blocks = np.array([[[[s11]], [[s12]]], [[[s12]], [[s22]]]])
    got = check_incoherence(blocks)
    a_mat = np.array([[s11 + s22]])
    b_mat = np.array([[s11 + s22 + 2.0 * s12]])
    scan = oracles.scan_ratio_max(a_mat, b_mat, seed=11)
    assert got >= scan - 1e-9
    assert abs(got - scan) <= 1e-6


def test_check_eigenvalue_cond():
    blocks = [np.eye(3), np.eye(3)]
    assert abs(check_eigenvalue_cond(blocks) - 1.0 / 3.0) <= 1e-15
    singular = [np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]])]
    assert check_eigenvalue_cond(singular) == math.inf
    rng = np.random.default_rng(32)
    rand_blocks = []
    for _ in range(3):
        a = rng.standard_normal((4, 4))
        rand_blocks.append(a @ a.T / 4.0 + 0.5 * np.eye(4))
    got = check_eigenvalue_cond(rand_blocks)
    ref = max(1.0 / (4.0 * float(np.linalg.eigvalsh(b)[0])) for b in rand_blocks)
    assert abs(got - ref) <= 1e-10


def test_lambda_min_fixtures_and_scan():
    assert lambda_min(np.eye(3)) == 1.0
    assert abs(lambda_min(np.diag([4.0, 9.0])) - 2.0) <= 1e-15
    rng = np.random.default_rng(33)
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T / 3.0 + 0.5 * np.eye(3)
    lam = lambda_min(sigma)
    scan = oracles.scan_min_quadratic(sigma, seed=13)
    assert lam * lam <= scan + 1e-12
    assert scan - lam * lam <= 1e-3


def test_loglog_slope_exact_power_law():
    ns = [100, 200, 400, 800]
    vals = [5.0 * n ** (-0.5) for n in ns]
    slope, stderr, r2 = loglog_slope(ns, vals)
    assert abs(slope + 0.5) <= 1e-12
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope2, stderr2, _ = loglog_slope([100, 200], [1.0, 0.5])
    assert math.isnan(stderr2)
    assert abs(slope2 + 1.0) <= 1e-12


def test_additive_population_moments_structure():
    d = Dictionary(TRIGONOMETRIC, 3, (0.0, 1.0))
    out = additive_population_moments(d, 2)
    m2 = moment_matrix(d)
    mv = moment_vector(d)
    assert np.array_equal(out[:3, :3], m2)
    assert np.array_equal(out[3:, 3:], m2)
    assert np.allclose(out[:3, 3:], np.outer(mv, mv), atol=1e-15)
    # trigonometric blocks make the stacked matrix exactly identity/2
    assert np.allclose(out, np.eye(6) / 2.0, atol=1e-12)


def test_rate_experiment_self_test_all_zero():
    grid = [{"n": 256, "p": 3, "N": 2}, {"n": 512, "p": 3, "N": 2}]
    rep = rate_experiment("case4", grid, reps=3, self_test=True)
    for cell in rep.cells:
        assert not cell["skipped"]
        assert cell["mean"] == 0.0
        assert all(v == 0.0 for v in cell["values"])


def test_rate_experiment_single_rep_sd_unavailable():
    rep = rate_experiment("case4", [{"n": 256, "p": 2, "N": 2}], reps=1)
    cell = rep.cells[0]
    assert cell["sd"] is None and cell["se"] is None
    assert cell["mean"] > 0.0


def test_rate_experiment_case4_decreases_with_n():
    grid = [{"n": 2**k, "p": 3, "N": 2} for k in (8, 10, 12)]
    rep = rate_experiment("case4", grid, reps=20, seed=3)
    cells = rep.cells
    for a, b in zip(cells, cells[1:]):
        assert b["mean"] <= a["mean"] + 2.0 * math.hypot(a["se"], b["se"])
    assert rep.slopes and rep.slopes[0]["slope"] < -0.3


def test_rate_experiment_l1_and_l3_cases():
    grid = [{"n": 256, "p": 4, "M": 1.0}, {"n": 1024, "p": 4, "M": 1.0}]
    rep_l1 = rate_experiment("l1_theorem", grid, reps=5, seed=4)
    assert all(not c["skipped"] for c in rep_l1.cells)
    assert rep_l1.cells[0]["mean"] > rep_l1.cells[1]["mean"]
    grid3 = [{"n": 256, "p": 4}, {"n": 1024, "p": 4}]
    rep_l3 = rate_experiment("l3_theorem", grid3, reps=5, seed=4)
    assert rep_l3.cells[0]["mean"] > rep_l3.cells[1]["mean"]


def test_rate_experiment_degenerate_family_skips():
    # additive piecewise-constant and spline blocks sum to one, so the stacked
    # population matrix is singular for p >= 2 and the cell must be skipped,
    # not crash, in the unbudgeted and the budgeted case alike
    for family, size in ((PIECEWISE_CONSTANT, 3), (CUBIC_B_SPLINE, 4)):
        for cell in ({"n": 128, "p": 2, "N": size}, {"n": 128, "p": 2, "N": size, "M": 1.0}):
            case = "case3" if "M" in cell else "case4"
            rep = rate_experiment(case, [cell], reps=2, family=family)
            assert rep.cells[0]["skipped"]
            assert "Lambda_min" in rep.cells[0]["message"]
            assert rep.slopes == []


def test_rate_experiment_validation():
    with pytest.raises(UsageError):
        rate_experiment("case9", [{"n": 64, "p": 2, "N": 2}], reps=2)
    with pytest.raises(UsageError):
        rate_experiment("case4", [{"n": 64, "p": 2}], reps=2)  # missing N
    with pytest.raises(UsageError):
        rate_experiment("case4", [{"n": 6, "p": 3, "N": 2}], reps=2)  # p*N+1 > n
    with pytest.raises(UsageError):
        rate_experiment("l3_theorem", [{"n": 3, "p": 4}], reps=2)  # p > n


def test_rate_experiment_csv_shape():
    grid = [{"n": 256, "p": 2, "N": 2}, {"n": 512, "p": 2, "N": 2}]
    rep = rate_experiment("case4", grid, reps=2, seed=5)
    header, rows = rep.csv_rows()
    assert header[0] == "record"
    kinds = [r[0] for r in rows]
    assert kinds.count("cell") == 2
    assert kinds.count("slope") == 1


def test_case5_tradeoff_smoke():
    rep = case5_tradeoff(p=2, n=2048, n_basis_grid=[1, 2, 4, 8], alpha=1.0, reps=5, seed=6)
    assert rep.chosen_n_basis in (1, 2, 4, 8)
    assert len(rep.rows) == 4
    for row in rep.rows:
        assert row["max_of_two"] >= max(row["bias"], row["variance"]) - 1e-15
    chosen = min(rep.rows, key=lambda r: r["max_of_two"])
    assert rep.chosen_n_basis == chosen["N"]
