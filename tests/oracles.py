"""Independent reference computations for the test suite.

Everything here is deliberately naive: dense solves, quadrature grids,
random-direction scans, factorial enumeration.  Slow but transparent; these
only run at test scale.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from semorder._rng import derived_rng
from semorder.dictionary import basis_matrix
from semorder.regress import fit_span
from semorder.semgen import SAMPLE_BLOCK, EdgeFunction, SemSpec

try:
    _trapezoid = np.trapezoid
except AttributeError:  # numpy < 2
    _trapezoid = np.trapz


def normal_moments(fn, points=400_001, span=12.0):
    """Mean and variance of fn(Z) for Z ~ N(0,1) by dense grid quadrature."""
    x = np.linspace(-span, span, points)
    w = np.exp(-0.5 * x * x)
    w /= w.sum()
    vals = fn(x)
    mean = float(w @ vals)
    var = float(w @ (vals - mean) ** 2)
    return mean, var


def bivariate_residual_variance(var_y, var_x, cov):
    """Residual variance of the best linear predictor of Y from X, jointly Gaussian."""
    return var_y - cov * cov / var_x


def normal_equations(x, y):
    """Dense normal-equations solve; full-rank designs only."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def svd_lstsq(x, y, rank_rel_tol=1e-10):
    """Minimum-norm least squares by an explicit thin SVD; returns (beta, rank).

    Singular values at or below ``rank_rel_tol`` times the largest column norm
    count as zero: the rank rule the package used before it called LAPACK's
    ``gelsd`` (whose cutoff is relative to the largest singular value).
    """
    if x.shape[1] == 0:
        return np.zeros(0), 0
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    keep = s > rank_rel_tol * float(np.linalg.norm(x, axis=0).max())
    beta = vt[keep].T @ ((u[:, keep].T @ y) / s[keep])
    return beta, int(np.count_nonzero(keep))


def l1_enumerate(a, b, budget):
    """Minimizer of ``v'a v - 2 b'v`` over ``||v||_1 <= budget`` by enumerating all 3^d sign faces (d <= 6).

    Some minimizer has a support T with nonsingular ``a_TT``: moving a
    minimizer along a null vector of ``a_TT`` changes neither the objective
    nor, where the budget binds, the l1 norm, until a coordinate reaches 0.
    So only faces (T, s) with well-conditioned ``a_TT`` are visited.  Each
    offers two candidates: the free minimizer ``u = a_TT^-1 b_T``, kept if it
    lies in the ball, and the minimizer on the plane ``s'v = budget``,
    ``u - mu a_TT^-1 s`` with ``mu = (s'u - budget) / (s' a_TT^-1 s)``, kept
    if its signs are s.  Returns the best candidate, or 0.
    """
    d = b.shape[0]
    assert d <= 6
    best, best_v = 0.0, np.zeros(d)
    for size in range(1, d + 1):
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=size)))
        for support in itertools.combinations(range(d), size):
            t = list(support)
            a_tt, b_t = a[np.ix_(t, t)], b[t]
            if np.linalg.cond(a_tt) > 1e10:
                continue
            inv = np.linalg.inv(a_tt)
            u = inv @ b_t
            g = signs @ inv
            mu = (signs @ u - budget) / np.sum(g * signs, axis=1)
            plane = u - mu[:, None] * g
            cands = plane[np.all(signs * plane > 0, axis=1)]
            if np.abs(u).sum() <= budget:
                cands = np.vstack([cands, u])
            for v in cands:
                val = float(v @ a_tt @ v - 2.0 * b_t @ v)
                if val < best:
                    best, best_v = val, np.zeros(d)
                    best_v[t] = v
    return best_v


def scan_quadratic_ellipsoid(delta, sigma, n_dirs=100_000, seed=0):
    """max |u' delta u| over u' sigma u = 1 by random directions; returns (value, argmax u)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_dirs, delta.shape[0]))
    scale = np.sqrt(np.einsum("ij,jk,ik->i", g, sigma, g))
    u = g / scale[:, None]
    vals = np.abs(np.einsum("ij,jk,ik->i", u, delta, u))
    k = int(np.argmax(vals))
    return float(vals[k]), u[k]


def scan_bilinear_two_ellipsoids(diff, sigma_f, sigma_g, r1, r2, n_dirs=100_000, seed=0):
    """max |f' diff g| over paired random points of the two ellipsoid boundaries."""
    rng = np.random.default_rng(seed)
    d_f, d_g = diff.shape
    f = rng.standard_normal((n_dirs, d_f))
    f *= r1 / np.sqrt(np.einsum("ij,jk,ik->i", f, sigma_f, f))[:, None]
    g = rng.standard_normal((n_dirs, d_g))
    g *= r2 / np.sqrt(np.einsum("ij,jk,ik->i", g, sigma_g, g))[:, None]
    return float(np.max(np.abs(np.einsum("ij,jk,ik->i", f, diff, g))))


def scan_linear_ellipsoid(v, sigma, n_dirs=100_000, seed=0):
    """max |u' v| over u' sigma u = 1 by random directions."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_dirs, len(v)))
    scale = np.sqrt(np.einsum("ij,jk,ik->i", g, sigma, g))
    return float(np.max(np.abs((g / scale[:, None]) @ v)))


def scan_min_quadratic(sigma, n_dirs=100_000, seed=0):
    """min u' sigma u over the unit sphere by random directions."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_dirs, sigma.shape[0]))
    g /= np.linalg.norm(g, axis=1)[:, None]
    return float(np.min(np.einsum("ij,jk,ik->i", g, sigma, g)))


def scan_ratio_max(a, b, n_vecs=10_000, seed=0):
    """max (v'av)/(v'bv) over random coefficient vectors."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_vecs, a.shape[0]))
    num = np.einsum("ij,jk,ik->i", g, a, g)
    den = np.einsum("ij,jk,ik->i", g, b, g)
    return float(np.max(num / den))


def grid_l1_ellipsoid_quadratic_d2(delta, sigma, budget, step=1e-4):
    """Dense grid over l1-sphere directions in R^2, each scaled to the feasible boundary.

    Along the ray t*u with ||u||_1 = 1 the feasible maximum of |t^2 u' delta u|
    sits at t = min(budget, 1/sqrt(u' sigma u)), so scanning directions suffices.
    """
    s = np.arange(0.0, 1.0 + step / 2, step)
    best = 0.0
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            u = np.stack([sx * s, sy * (1.0 - s)], axis=1)
            q = np.einsum("ij,jk,ik->i", u, sigma, u)
            t = np.minimum(budget, 1.0 / np.sqrt(q))
            vals = t * t * np.abs(np.einsum("ij,jk,ik->i", u, delta, u))
            best = max(best, float(vals.max()))
    return best


def scan_l1_ellipsoid_quadratic(delta, sigma, budget, n_dirs=20_000, seed=0):
    """max |b' delta b| over the l1 ball of radius `budget` ∩ {b' sigma b <= 1} by random directions.

    Half the directions are dense Gaussian, half keep a random support of
    random size; each is scaled to the feasible boundary, ``t = min(budget /
    ||u||_1, 1 / sqrt(u' sigma u))``.
    """
    rng = np.random.default_rng(seed)
    d = delta.shape[0]
    u = rng.standard_normal((n_dirs, d))
    half = n_dirs // 2
    sizes = rng.integers(1, d + 1, half)
    u[:half] *= np.argsort(rng.random((half, d)), axis=1) < sizes[:, None]
    t = np.minimum(budget / np.abs(u).sum(axis=1), 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", u, sigma, u)))
    return float(np.max(t * t * np.abs(np.einsum("ij,jk,ik->i", u, delta, u))))


def trapezoid_j_value(p, n, k_x, budget, points=200_001):
    """Trapezoid evaluation of the entropy integral, formulas written out inline."""
    if k_x * budget == 0.0:
        return 0.0
    u = np.linspace(1.0 / math.sqrt(n), 1.0, points)
    arg = u * budget * k_x / 2.0
    ent = 1.0 + 8.0 * math.log(2.0 * p) * math.log(2.0 * n) * (k_x * budget / arg) ** 2
    return float(_trapezoid(np.sqrt(ent), u) * budget * k_x + budget * k_x)


def fpbspl(t, k, x, ell):
    """The k + 1 B-splines of degree k on knots `t` that are nonzero at `x`, where ``t[ell] <= x <= t[ell + 1]``.

    A scalar transcription of FITPACK's ``fpbspl`` (Dierckx, *Curve and
    Surface Fitting with Splines*, 1993), 0-based: de Boor's recursion on
    Python floats, in the Fortran routine's loop and operation order.
    """
    t = [float(v) for v in t]
    h, hh = [1.0] + [0.0] * k, [0.0] * k
    for j in range(1, k + 1):
        for i in range(j):
            hh[i] = h[i]
        h[0] = 0.0
        for i in range(1, j + 1):
            li = ell + i
            lj = li - j
            if t[li] == t[lj]:
                h[i] = 0.0
                continue
            f = hh[i - 1] / (t[li] - t[lj])
            h[i - 1] = h[i - 1] + f * (t[li] - x)
            h[i] = f * (x - t[lj])
    return h


def cubic_spline_basis(t, x):
    """Every cubic B-spline on the clamped knots `t` at each point of the 1-d `x` in ``[t[3], t[-4]]``, by :func:`fpbspl`.

    A point's interval is the last ``ell`` in ``3 .. len(t) - 5`` with
    ``t[ell] <= x``, so the right end belongs to the last interval.
    """
    m = len(t) - 4
    out = np.zeros((len(x), m))
    for row, xv in zip(out, x):
        xv = float(xv)
        ell = 3
        while ell < m - 1 and t[ell + 1] <= xv:
            ell += 1
        row[ell - 3 : ell + 1] = fpbspl(t, 3, xv, ell)
    return out


def numeric_moment_grid(d, cells_per_interval=30_000):
    """Midpoint-rule grid aligned with the basis partition (exact for indicators)."""
    a, b = d.domain
    m = d.size * cells_per_interval
    return a + (b - a) * (np.arange(m) + 0.5) / m


def numeric_moment_matrix(d, cells_per_interval=30_000):
    """Second-moment matrix of the basis under Uniform[a,b] by midpoint quadrature."""
    psi = basis_matrix(d, numeric_moment_grid(d, cells_per_interval))
    return psi.T @ psi / psi.shape[0]


def numeric_moment_vector(d, cells_per_interval=30_000):
    """First moments of the basis under Uniform[a,b] by midpoint quadrature."""
    return basis_matrix(d, numeric_moment_grid(d, cells_per_interval)).mean(axis=0)


def direct_design(values, class_spec, key):
    """The full n-row class design ``[1 | B_k ...]`` of the columns `key` of `values`, in that order.

    Reproduces the package's column rule directly, without the engine's
    compression.  A span class drops each block's all-zero columns and, for a
    partition-of-unity family, its last remaining column, except in the first
    block of a design without an intercept; an l1 class keeps every block
    whole.  With neither blocks nor intercept the design has no column.
    """
    values = np.asarray(values, dtype=np.float64)
    span = class_spec.kind == "span"
    reduce = span and class_spec.dictionary.family != "trigonometric"
    first = 0 if class_spec.intercept else 1
    parts = [np.ones((values.shape[0], 1))] if class_spec.intercept else []
    for i, k in enumerate(key):
        block = basis_matrix(class_spec.dictionary, values[:, k])
        keep = [r for r in range(block.shape[1]) if not span or np.any(block[:, r] != 0.0)]
        block = block[:, keep] if reduce or len(keep) < block.shape[1] else block
        parts.append(block[:, :-1] if reduce and i >= first else block)
    if not parts:
        return np.zeros((values.shape[0], 0))
    return np.hstack(parts) if len(parts) > 1 else parts[0]


def direct_sigma(data, class_spec):
    """The floored residual variance ``sigma(v, mask)`` of each conditional fit, on the full n-row design.

    Each fit is :func:`fit_span` on :func:`direct_design` of the columns in
    `mask`, in ascending order, with the engine's floor; the design without
    a column gives ``mean(y*y)``.
    """
    assert class_spec.kind == "span"
    values = np.asarray(getattr(data, "values", data), dtype=np.float64)
    p = values.shape[1]
    ms = np.mean(values * values, axis=0)
    floor = np.maximum(1e-12 * ms, np.finfo(np.float64).tiny)
    memo = {}

    def sig(v, mask):
        hit = memo.get((v, mask))
        if hit is None:
            y = values[:, v]
            design = direct_design(values, class_spec, [k for k in range(p) if mask >> k & 1])
            rv = fit_span(design, y).residual_variance if design.shape[1] else float(np.mean(y * y))
            hit = memo[(v, mask)] = max(rv, float(floor[v]))
        return hit

    return sig


def enumerate_sigmas(p, sigma):
    """Best (score, permutation) of ``sum log sigma(v, mask)`` by factorial enumeration.

    `mask` holds the variables placed before v; the lexicographically
    smallest permutation wins ties, and each score is summed as the
    estimator sums it.
    """
    best_score, best_pi = math.inf, None
    for pi in itertools.permutations(range(p)):
        sigmas, mask = np.empty(p), 0
        for pos, v in enumerate(pi):
            sigmas[pos] = sigma(v, mask)
            mask |= 1 << v
        s = float(np.sum(np.log(sigmas)))
        if s < best_score:
            best_score, best_pi = s, pi
    return best_score, best_pi


def sigma_table_gap(p, sigma, reference):
    """Largest relative difference of ``sigma`` from ``reference`` over every (v, mask) with v not in mask."""
    return max(
        abs(sigma(v, mask) - reference(v, mask)) / reference(v, mask)
        for v in range(p)
        for mask in range(1 << p)
        if not mask >> v & 1
    )


def sample(spec, n, seed):
    """The n x p values of ``semgen.sample(spec, n, seed)``, one whole column at a time.

    The noise of every row is drawn first, SAMPLE_BLOCK rows per stream of
    ``derived_rng(seed, block)``; then each variable, in the model order, is
    its scaled noise plus its parents' edge functions in ascending parent
    order, each evaluated on the whole n-row column.
    """
    eps = np.concatenate(
        [derived_rng(seed, b).standard_normal((min(SAMPLE_BLOCK, n - start), spec.p))
         for b, start in enumerate(range(0, n, SAMPLE_BLOCK))]
    )
    x = np.empty((n, spec.p))
    for pos, j in enumerate(spec.order):
        col = spec.noise_sd[j] * eps[:, pos]
        for k in spec.parents(j):
            col = col + spec.edges[(k, j)](x[:, k])
        x[:, j] = col
    return x


def topological_filter(spec):
    """All permutations that keep every edge source before its target."""
    out = []
    for pi in itertools.permutations(range(spec.p)):
        pos = {v: i for i, v in enumerate(pi)}
        if all(pos[k] < pos[j] for (k, j) in spec.edges):
            out.append(pi)
    return out


def random_dag(rng, p_low=3, p_high=7):
    """A SemSpec with p in [p_low, p_high), a random order and each forward edge kept w.p. 0.4."""
    p = int(rng.integers(p_low, p_high))
    order = tuple(rng.permutation(p))
    pos = {v: i for i, v in enumerate(order)}
    edges = {}
    for a in range(p):
        for b in range(p):
            if pos[a] < pos[b] and rng.random() < 0.4:
                edges[(a, b)] = EdgeFunction.linear(1.0)
    return SemSpec(p=p, order=order, edges=edges, noise_sd=(1.0,) * p)
