"""Independent reference computations for the test suite.

Everything here is deliberately naive: dense solves, quadrature grids,
random-direction scans, factorial enumeration.  Slow but transparent; these
only run at test scale.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from semorder.dictionary import basis_matrix
from semorder.regress import fit_span
from semorder.semgen import EdgeFunction, SemSpec

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


def enumerate_order(data, class_spec):
    """Best (score, permutation) by factorial enumeration with lexicographic tie-break.

    Reproduces the conditional-fit assembly directly (same basis blocks, same
    hstack order, same floor) so values are bit-identical to the estimator's.
    Like the engine, each block loses its all-zero columns and, for a
    partition-of-unity family, its last remaining column, except in the first
    block of a design without an intercept.
    """
    assert class_spec.kind == "span"
    values = np.asarray(getattr(data, "values", data), dtype=np.float64)
    n, p = values.shape
    reduce = class_spec.dictionary.family != "trigonometric"
    first = 0 if class_spec.intercept else 1
    blocks = []
    for k in range(p):
        block = basis_matrix(class_spec.dictionary, values[:, k])
        keep = [r for r in range(block.shape[1]) if np.any(block[:, r] != 0.0)]
        blocks.append(block[:, keep] if reduce or len(keep) < block.shape[1] else block)
    ones = np.ones((n, 1))
    ms = np.mean(values * values, axis=0)
    floor = np.maximum(1e-12 * ms, np.finfo(np.float64).tiny)
    memo = {}

    def sig(v, key):
        hit = memo.get((v, key))
        if hit is None:
            y = values[:, v]
            parts = ([ones] if class_spec.intercept else []) + [
                blocks[k][:, :-1] if reduce and i >= first else blocks[k] for i, k in enumerate(key)
            ]
            if parts:
                design = np.hstack(parts) if len(parts) > 1 else parts[0]
                rv = fit_span(design, y).residual_variance
            else:
                rv = float(np.mean(y * y))
            if rv < floor[v]:
                rv = float(floor[v])
            memo[(v, key)] = rv
            hit = rv
        return hit

    best_score, best_pi = math.inf, None
    for pi in itertools.permutations(range(p)):
        sigmas = np.empty(p)
        for pos, v in enumerate(pi):
            sigmas[pos] = sig(v, tuple(sorted(pi[:pos])))
        s = float(np.sum(np.log(sigmas)))
        if s < best_score:
            best_score, best_pi = s, pi
    return best_score, best_pi


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
