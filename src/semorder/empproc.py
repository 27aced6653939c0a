"""Empirical-process suprema for linear classes, bound formulas, and rate runs.

For a feature map ``psi`` with empirical and population second-moment matrices
``Sigma_hat`` and ``Sigma``, the central statistic is

    Z = sup { |b' (Sigma_hat - Sigma) b| : b' Sigma b <= 1 },

the worst-case gap between empirical and population squared norms over the
unit ellipsoid of the class.  Over the full ellipsoid Z is the largest
absolute generalized eigenvalue and is computed exactly
(:func:`z_sup_ellipsoid`); intersected with an l1 budget it is NP-hard in
general and :func:`z_sup_l1` returns a certified lower bound by multi-start
projected gradient ascent, together with a cheap certified upper bound.  The
ascent advances every start and both signs as one batch of rows, each with
its own step size.  Its projection onto the intersection of the l1 ball and
the ellipsoid is Dykstra's method, stopped per row; the ellipsoid projection
finds its multiplier by a vectorized Newton iteration on the secular equation
in Sigma's eigen-coordinates (More & Sorensen 1983).

The module also evaluates the closed-form bound ingredients (entropy bound,
Dudley-type integral, the plug-in rate :func:`delta_n`), checks the two side
conditions for additive designs, runs Monte-Carlo rate experiments against the
theoretical n^{-1/2} slope, and provides a Rademacher symmetrization
diagnostic.  Bound formulas adopt the convention that universal constants
equal 1, so their values are meaningful up to constants only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import check_psd, check_symmetric, gen_eigh, project_l1, whitener
from ._rng import derived_rng
from .dictionary import (
    TRIGONOMETRIC,
    Dictionary,
    basis_matrix,
    moment_matrix,
    moment_vector,
)
from .errors import DegeneracyError, UsageError, as_number

RATE_CASES = ("case3", "case4", "l1_theorem", "l3_theorem")

__all__ = [
    "MomentPair",
    "RademacherResult",
    "RateReport",
    "Case5Report",
    "z_sup_ellipsoid",
    "z_sup_l1",
    "inner_product_sup",
    "subgauss_product_sup",
    "rademacher_diagnostic",
    "entropy_bound_l1",
    "j_integral_l1",
    "delta_n",
    "lambda_min",
    "check_incoherence",
    "check_eigenvalue_cond",
    "rate_experiment",
    "case5_tradeoff",
    "loglog_slope",
    "additive_population_moments",
    "RATE_CASES",
]


@dataclass(frozen=True)
class MomentPair:
    """Empirical and population second-moment matrices of one feature map.

    Optional metadata records the sample size, coordinate count, per-block
    basis size, and the uniform envelope bound of the features.
    """

    sigma_hat: np.ndarray
    sigma: np.ndarray
    n: int | None = None
    p: int | None = None
    n_basis: int | None = None
    k_x: float | None = None

    def __post_init__(self):
        sh = check_symmetric(self.sigma_hat, "sigma_hat")
        s = check_symmetric(self.sigma, "sigma")
        if sh.shape != s.shape:
            raise UsageError(f"moment matrices disagree in shape: {sh.shape} vs {s.shape}")
        check_psd(np.linalg.eigvalsh(s), "population matrix")
        object.__setattr__(self, "sigma_hat", sh)
        object.__setattr__(self, "sigma", s)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


def _whiten(sigma: np.ndarray, name: str = "population matrix") -> np.ndarray:
    """The whitener of a symmetric positive definite `sigma`, from one ``eigh``."""
    return whitener(*np.linalg.eigh(check_symmetric(sigma, name)), name)


def _sup_gen_eig(delta: np.ndarray, white: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest-|lambda| solution of ``delta v = lambda sigma v``, with ``white`` Sigma's whitener."""
    w, v = gen_eigh(delta, white)
    idx = int(np.argmax(np.abs(w)))
    return float(abs(w[idx])), v[:, idx]


def z_sup_ellipsoid(mp: MomentPair, return_direction: bool = False):
    """Exact norm-gap supremum over the full ellipsoid ``{b : b'Sigma b <= 1}``.

    Equals the largest absolute generalized eigenvalue of
    ``(Sigma_hat - Sigma) v = lambda Sigma v``.  Requires Sigma positive
    definite at tolerance ``Lambda_min^2 > 1e-12 * trace``.
    """
    val, vec = _sup_gen_eig(mp.sigma_hat - mp.sigma, _whiten(mp.sigma))
    if return_direction:
        return val, vec
    return val


NEWTON_MAX_ITERS = 100
ASCENT_ITERS = 150


def _project_ellipsoid(v: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise Euclidean projection onto ``{x : x' Sigma x <= 1}`` given eigh(Sigma).

    A row outside the ellipsoid, with coordinates ``z`` in the eigenbasis,
    maps to ``(I + mu Lambda)^{-1} z`` where mu > 0 is the root of the secular
    equation ``phi(mu) = 1 / ||(I + mu Lambda)^{-1} Lambda^{1/2} z|| - 1``.
    phi is concave and increasing, so Newton's method from mu = 0 rises
    monotonically to the root (More & Sorensen 1983).  A row stops once it
    reaches the root or a step falls below ``1e-15 + 8.9e-16 mu``.  Returns
    the projected rows and the number of rows whose iteration hit
    NEWTON_MAX_ITERS.
    """
    z = v @ eigvecs
    lz2 = eigvals * z * z
    outside = lz2.sum(axis=1) > 1.0
    if not outside.any():
        return v.copy(), 0
    z = z[outside]
    lz2 = lz2[outside]
    l2z2 = eigvals * lz2
    mu = np.zeros(z.shape[0])
    live = np.ones(z.shape[0], dtype=bool)
    for _ in range(NEWTON_MAX_ITERS):
        r = 1.0 / (1.0 + mu[:, None] * eigvals)
        r2 = r * r
        g = (lz2 * r2).sum(axis=1)
        live &= g > 1.0
        step = (g * np.sqrt(g) - g) / (l2z2 * r2 * r).sum(axis=1)
        mu = np.where(live, mu + step, mu)
        live &= step > 1e-15 + 8.9e-16 * mu
        if not live.any():
            break
    out = v.copy()
    out[outside] = (z / (1.0 + mu[:, None] * eigvals)) @ eigvecs.T
    return out, int(np.count_nonzero(live))


def _project_intersection(
    v: np.ndarray,
    budget: float,
    eigvals: np.ndarray,
    eigvecs: np.ndarray,
    iters: int = 40,
) -> tuple[np.ndarray, int]:
    """Row-wise Dykstra projections onto (l1 ball) ∩ (Sigma ellipsoid).

    Each row stops on its own once an l1 step moves it by less than 1e-14 in
    every coordinate.  Returns the rows and the count of ellipsoid projections
    that hit the Newton cap.
    """
    out = np.empty_like(v)
    rows = np.arange(v.shape[0])
    x = v
    p_corr = np.zeros_like(v)
    q_corr = np.zeros_like(v)
    capped = 0
    for _ in range(iters):
        y, c = _project_ellipsoid(x + p_corr, eigvals, eigvecs)
        capped += c
        p_corr = x + p_corr - y
        x_new = project_l1(y + q_corr, budget)
        q_corr = y + q_corr - x_new
        moving = np.abs(x_new - x).max(axis=1) >= 1e-14
        x = x_new
        if not moving.all():
            out[rows[~moving]] = x[~moving]
            rows, x, p_corr, q_corr = rows[moving], x[moving], p_corr[moving], q_corr[moving]
            if not rows.size:
                break
    out[rows] = x
    return out, capped


def z_sup_l1(
    mp: MomentPair,
    budget: float,
    restarts: int = 64,
    seed: int = 0,
    return_details: bool = False,
):
    """Certified lower bound on the norm-gap supremum under an l1 budget.

    Maximizes ``s * b' (Sigma_hat - Sigma) b`` for both signs over the
    intersection of the l1 ball of radius `budget` with the Sigma unit
    ellipsoid.  Multi-start projected gradient ascent (Dykstra projections
    onto the intersection), seeded deterministically, with every start and
    sign advanced together as one batch for at most ``ASCENT_ITERS`` steps;
    every evaluated point is rescaled exactly onto the feasible set, so the
    returned value is a true lower bound.  Exact for practical purposes in
    low dimension; a heuristic beyond that.

    With ``return_details=True`` also returns a dict holding the maximizer
    (``argmax``), the number of scored ``starts`` and of ``ascents``, the
    certified upper bound ``upper = min(z_ellipsoid, M^2 max|Delta_ij|)``
    (valid since ``|b' Delta b| <= ||b||_1^2 max|Delta_ij|``), the number of
    ascents ``retired`` by the step-size rule before the iteration cap, and
    the number of ellipsoid projections ``newton_capped`` at the Newton cap.
    """
    if not (budget > 0):
        raise UsageError(f"budget must be positive, got {budget!r}")
    if restarts < 0:
        raise UsageError("restarts must be nonnegative")
    delta = mp.sigma_hat - mp.sigma
    sigma = mp.sigma
    d = mp.dim
    ev, evec = np.linalg.eigh(sigma)

    def feasible_value(u: np.ndarray) -> tuple[float, np.ndarray]:
        l1 = float(np.abs(u).sum())
        if l1 <= 0.0:
            return 0.0, u
        quad = float(u @ (sigma @ u))
        t = budget / l1
        if quad > 0.0:
            t = min(t, 1.0 / math.sqrt(quad))
        t *= 1.0 - 1e-12
        b = t * u
        return abs(float(b @ (delta @ b))), b

    upper = budget * budget * float(np.max(np.abs(delta))) if d else 0.0
    cands: list[np.ndarray] = []
    try:
        w_all, v_all = gen_eigh(delta, whitener(ev, evec))
        top = int(np.argmax(np.abs(w_all)))
        upper = min(upper, float(abs(w_all[top])))
        cands.append(v_all[:, top])
        cands.append(v_all[:, int(np.argmin(w_all))])
        cands.append(v_all[:, int(np.argmax(w_all))])
    except DegeneracyError:
        pass
    ev = np.clip(ev, 0.0, None)
    w_d, v_d = np.linalg.eigh(delta)
    cands.append(v_d[:, int(np.argmax(np.abs(w_d)))])
    cands.append(v_d[:, 0])
    cands.append(v_d[:, -1])
    cands.extend(np.eye(d))
    rng = derived_rng(seed)
    for _ in range(restarts):
        g = rng.standard_normal(d)
        cands.append(g)
        if d > 2:
            sparse = g.copy()
            keep = np.argsort(np.abs(g))[-2:]
            mask = np.zeros(d, dtype=bool)
            mask[keep] = True
            sparse[~mask] = 0.0
            cands.append(sparse)

    scored = []
    best_val, best_pt = 0.0, np.zeros(d)
    for u in cands:
        val, b = feasible_value(u)
        scored.append((val, b))
        if val > best_val:
            best_val, best_pt = val, b
    scored.sort(key=lambda t: -t[0])
    n_ascend = min(len(scored), max(8, restarts // 8))
    dnorm = float(np.max(np.abs(w_d))) if d else 0.0
    ascents = retired = capped = 0
    if dnorm > 0.0:
        # one row per (start, sign), start-major, each with its own step size
        beta = np.repeat(np.array([b for _, b in scored[:n_ascend]]), 2, axis=0)
        sign = np.tile([1.0, -1.0], n_ascend)
        q_beta = sign * np.einsum("ij,ij->i", beta, beta @ delta)
        step = np.full(beta.shape[0], 0.45 / dnorm)
        active = np.ones(beta.shape[0], dtype=bool)
        for _ in range(ASCENT_ITERS):
            rows = np.nonzero(active)[0]
            b = beta[rows]
            grad = 2.0 * sign[rows, None] * (b @ delta)
            cand, c = _project_intersection(b + step[rows, None] * grad, budget, ev, evec)
            capped += c
            q_cand = sign[rows] * np.einsum("ij,ij->i", cand, cand @ delta)
            accept = q_cand >= q_beta[rows] - 1e-15
            up = rows[accept]
            beta[up] = cand[accept]
            q_beta[up] = q_cand[accept]
            step[up] = np.minimum(step[up] * 1.2, 4.0 / dnorm)
            down = rows[~accept]
            step[down] *= 0.5
            retire = step[down] * dnorm < 1e-12
            retired += int(np.count_nonzero(retire))
            active[down[retire]] = False
            if not active.any():
                break
        for row in beta:
            val, b = feasible_value(row)
            ascents += 1
            if val > best_val:
                best_val, best_pt = val, b
    if return_details:
        return best_val, {
            "argmax": best_pt,
            "starts": len(scored),
            "ascents": ascents,
            "upper": upper,
            "retired": retired,
            "newton_capped": capped,
        }
    return best_val


def inner_product_sup(
    c_hat: np.ndarray,
    c: np.ndarray,
    sigma_f: np.ndarray,
    sigma_g: np.ndarray,
    r1: float,
    r2: float,
) -> float:
    """Exact supremum of |(Pn - P) f g| over two linear-class ellipsoids.

    With f ranging over ``{norm <= r1}`` of one feature map and g over
    ``{norm <= r2}`` of another, the supremum is ``r1 * r2`` times the top
    singular value of the whitened cross-moment gap.
    """
    if not (r1 >= 0 and r2 >= 0):
        raise UsageError("radii must be nonnegative")
    c_hat = np.asarray(c_hat, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if c_hat.shape != c.shape or c_hat.ndim != 2:
        raise UsageError(f"cross-moment matrices must share a 2-d shape, got {c_hat.shape} vs {c.shape}")
    wf = _whiten(sigma_f, "first feature moment matrix")
    wg = _whiten(sigma_g, "second feature moment matrix")
    if wf.shape[0] != c_hat.shape[0] or wg.shape[0] != c_hat.shape[1]:
        raise UsageError("cross-moment shape does not match the feature moment matrices")
    w = wf.T @ (c_hat - c) @ wg
    smax = float(np.linalg.svd(w, compute_uv=False)[0]) if w.size else 0.0
    return r1 * r2 * smax


def subgauss_product_sup(data, y: np.ndarray, sigma: np.ndarray, m: np.ndarray) -> float:
    """Exact supremum of |(Pn - P) Y f| over the unit ellipsoid of features.

    `m` holds the population cross moments ``E[Y psi_j]``; the supremum is the
    Sigma-whitened euclidean norm of the empirical gap vector.
    """
    x = np.asarray(getattr(data, "values", data), dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise UsageError(f"incompatible data/response shapes {x.shape} and {y.shape}")
    m = np.asarray(m, dtype=np.float64).ravel()
    if m.shape != (x.shape[1],):
        raise UsageError(f"cross-moment vector length {m.shape[0]} does not match {x.shape[1]} features")
    z = _whiten(sigma, "sigma").T @ (x.T @ y / x.shape[0] - m)
    return float(math.sqrt(float(z @ z)))


@dataclass(frozen=True)
class RademacherResult:
    """Monte-Carlo means and standard errors of Z and its symmetrized twin."""

    z_mean: float
    z_eps_mean: float
    z_se: float
    z_eps_se: float
    reps: int

    def to_json(self) -> dict:
        return {
            "z_mean": self.z_mean,
            "z_eps_mean": self.z_eps_mean,
            "z_se": self.z_se,
            "z_eps_se": self.z_eps_se,
            "reps": self.reps,
        }


def rademacher_diagnostic(data, mp: MomentPair, reps: int = 200, seed: int = 0) -> RademacherResult:
    """Compare the norm-gap supremum with its sign-randomized counterpart.

    Per replication the symmetrized statistic draws independent signs
    ``eps_i`` and takes the ellipsoid supremum of ``|sum_i eps_i f(X_i)^2/n|``
    (largest absolute generalized eigenvalue of the sign-weighted Gram matrix
    against Sigma).  `data` is either a fixed (n, d) feature matrix, in which
    case only the signs resample and the plain statistic is deterministic, or
    a callable ``rng -> (n, d) array`` drawing a fresh design each
    replication.  Theory predicts ``E Z <= 2 E Z_eps``.
    """
    if reps < 30:
        raise UsageError(f"need reps >= 30 for stable standard errors, got {reps}")
    white = _whiten(mp.sigma)
    sampler = data if callable(data) else None
    fixed = None if sampler else np.asarray(getattr(data, "values", data), dtype=np.float64)
    if fixed is not None and (fixed.ndim != 2 or fixed.shape[1] != mp.dim):
        raise UsageError(f"data shape {fixed.shape} does not match moment dimension {mp.dim}")
    z_vals = np.empty(reps)
    z_eps_vals = np.empty(reps)
    for r in range(reps):
        rng = derived_rng(seed, r)
        x = np.asarray(sampler(rng), dtype=np.float64) if sampler else fixed
        if x.ndim != 2 or x.shape[1] != mp.dim:
            raise UsageError(f"sampled data shape {x.shape} does not match moment dimension {mp.dim}")
        n = x.shape[0]
        gram = x.T @ x / n
        z_vals[r], _ = _sup_gen_eig(gram - mp.sigma, white)
        eps = rng.integers(0, 2, n) * 2.0 - 1.0
        gram_eps = x.T @ (eps[:, None] * x) / n
        z_eps_vals[r], _ = _sup_gen_eig(gram_eps, white)
    return RademacherResult(
        z_mean=float(z_vals.mean()),
        z_eps_mean=float(z_eps_vals.mean()),
        z_se=float(z_vals.std(ddof=1) / math.sqrt(reps)),
        z_eps_se=float(z_eps_vals.std(ddof=1) / math.sqrt(reps)),
        reps=reps,
    )


def entropy_bound_l1(u: float, p: int, n: int, k_x: float, budget: float) -> float:
    """Covering-number exponent bound for the l1-budgeted linear class.

    ``1 + 8 ln(2p) ln(2n) K_X^2 M^2 / u^2``, the unit-ball bound rescaled to
    budget M.  Up to universal constants (taken as 1).
    """
    if not (u > 0):
        raise UsageError(f"scale u must be positive, got {u!r}")
    if p < 1 or n < 1:
        raise UsageError("p and n must be at least 1")
    if k_x < 0 or budget < 0:
        raise UsageError("K_X and the budget must be nonnegative")
    return 1.0 + 8.0 * math.log(2 * p) * math.log(2 * n) * (k_x * budget / u) ** 2


def j_integral_l1(p: int, n: int, k_x: float, budget: float) -> float:
    """Dudley-type entropy integral for the l1-budgeted linear class.

    Evaluates ``[integral_{1/sqrt(n)}^1 sqrt(entropy_bound_l1(u*M*K_X/2)) du
    + 1] * M * K_X`` in closed form, with the universal constant set to 1.
    The integrand is ``sqrt(1 + c/u^2)`` with ``c = 32 ln(2p) ln(2n)``, whose
    antiderivative is ``sqrt(u^2 + c) - sqrt(c) asinh(sqrt(c)/u)``.  Monotone
    nondecreasing in every argument; 0 when the envelope ``M * K_X``
    vanishes.
    """
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    if p < 1:
        raise UsageError("p must be at least 1")
    if k_x < 0 or budget < 0:
        raise UsageError("K_X and the budget must be nonnegative")
    env = k_x * budget
    if env == 0.0:
        return 0.0
    c = 32.0 * math.log(2 * p) * math.log(2 * n)
    rc = math.sqrt(c)

    def antiderivative(u: float) -> float:
        return math.sqrt(u * u + c) - rc * math.asinh(rc / u)

    integral = antiderivative(1.0) - antiderivative(1.0 / math.sqrt(n))
    return (integral + 1.0) * env


def delta_n(k_x: float, k_0: float, p: int, n: int, lam_min: float) -> float:
    """Plug-in convergence rate ``sqrt(K_X^2 (1+K_0^2) p ln(p) / (n Lambda_min^2))``.

    Up to universal constants.  ``p = 1`` makes the log factor vanish; the
    value 0 is returned with a warning since the rate is uninformative there.
    """
    if not (k_x > 0 and k_0 > 0 and n >= 1):
        raise UsageError("K_X, K_0 and n must be positive")
    if lam_min == 0:
        raise UsageError("Lambda_min must be nonzero")
    if not (lam_min > 0):
        raise UsageError(f"Lambda_min must be positive, got {lam_min!r}")
    if p < 1:
        raise UsageError(f"p must be at least 1, got {p}")
    if p == 1:
        warnings.warn("delta_n is 0 at p=1 (log p vanishes); rate uninformative", RuntimeWarning, stacklevel=2)
        return 0.0
    return math.sqrt(k_x * k_x * (1.0 + k_0 * k_0) * p * math.log(p) / (n * lam_min * lam_min))


def lambda_min(sigma: np.ndarray) -> float:
    """Square root of the smallest eigenvalue of Sigma, clamped at 0."""
    sigma = check_symmetric(sigma, "sigma")
    if sigma.shape[0] == 0:
        return 0.0
    return float(math.sqrt(max(float(np.linalg.eigvalsh(sigma)[0]), 0.0)))


def _as_block_grid(blocks) -> np.ndarray:
    arr = np.asarray(blocks, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
        raise UsageError(f"expected a p x p grid of N x N blocks, got shape {arr.shape}")
    return arr


def check_incoherence(blocks) -> float:
    """Smallest valid incoherence constant c1 for an additive design.

    `blocks` is the p x p grid of N x N cross-moment blocks of the per
    coordinate feature maps.  Returns the largest generalized eigenvalue of
    ``(A, B)`` with ``A = sum_k blocks[k, k]`` and ``B = sum_{j,k} blocks[j,
    k]``; iid coordinates give 1, perfectly dependent coordinates 1/p.
    """
    arr = _as_block_grid(blocks)
    p, _, nb, _ = arr.shape
    full = arr.transpose(0, 2, 1, 3).reshape(p * nb, p * nb)
    full = check_symmetric(full, "full block matrix")
    check_psd(np.linalg.eigvalsh(full), "full block matrix")
    a = arr.trace(axis1=0, axis2=1)
    b = arr.sum(axis=(0, 1))
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    return float(gen_eigh(a, _whiten(b, "block sum"))[0][-1])


def check_eigenvalue_cond(diag_blocks, n_basis: int | None = None) -> float:
    """Smallest valid per-block eigenvalue constant ``c0 = max_k 1/(N lam_min_k)``.

    Returns the +inf sentinel when any block is singular.
    """
    blocks = [check_symmetric(np.asarray(b, dtype=np.float64), f"block {k}") for k, b in enumerate(diag_blocks)]
    if not blocks:
        raise UsageError("need at least one diagonal block")
    nb = blocks[0].shape[0]
    for k, b in enumerate(blocks):
        if b.shape[0] != nb:
            raise UsageError(f"block {k} has size {b.shape[0]}, expected {nb}")
    if n_basis is None:
        n_basis = nb
    elif n_basis != nb:
        raise UsageError(f"stated N={n_basis} does not match block size {nb}")
    worst = 0.0
    for b in blocks:
        lam = float(np.linalg.eigvalsh(b)[0])
        if lam <= 0.0:
            return float("inf")
        worst = max(worst, 1.0 / (n_basis * lam))
    return worst


def loglog_slope(ns, values) -> tuple[float, float, float]:
    """OLS slope of log(values) on log(ns) with its standard error and R^2."""
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.asarray(values, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise UsageError("need at least two (n, value) pairs for a slope")
    if np.any(y <= 0):
        raise UsageError("slope fit needs positive values")
    y = np.log(y)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx <= 0:
        raise UsageError("slope fit needs at least two distinct n")
    slope = float(xc @ y) / sxx
    resid = y - y.mean() - slope * xc
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    if x.size > 2:
        stderr = math.sqrt(rss / (x.size - 2) / sxx)
    else:
        stderr = float("nan")
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return slope, stderr, r2


def additive_population_moments(d: Dictionary, p: int) -> np.ndarray:
    """Population second-moment matrix of the stacked additive feature map.

    Coordinates are iid uniform on the dictionary domain, so diagonal blocks
    are the dictionary moment matrix and off-diagonal blocks the outer
    product of the mean vector.
    """
    if p < 1:
        raise UsageError("need p >= 1")
    m2 = moment_matrix(d)
    mv = moment_vector(d)
    nb = d.size
    out = np.kron(np.ones((p, p)) - np.eye(p), np.outer(mv, mv))
    out += np.kron(np.eye(p), m2)
    return out


@dataclass
class RateReport:
    """Per-cell statistics and fitted slopes of a rate experiment."""

    case: str
    reps: int
    seed: int
    family: str | None
    domain: tuple[float, float] | None
    restarts: int | None
    self_test: bool
    theoretical_slope: float = -0.5
    cells: list[dict] = field(default_factory=list)
    slopes: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "reps": self.reps,
            "seed": self.seed,
            "family": self.family,
            "domain": list(self.domain) if self.domain else None,
            "restarts": self.restarts,
            "self_test": self.self_test,
            "theoretical_slope": self.theoretical_slope,
            "cells": self.cells,
            "slopes": self.slopes,
        }

    def csv_rows(self):
        header = ["record", "n", "p", "N", "M", "reps", "mean", "sd", "se", "slope", "stderr", "r_squared", "skipped"]
        rows = []
        for c in self.cells:
            rows.append(
                ["cell", c["n"], c["p"], c.get("N", ""), c.get("M", ""), c["reps"],
                 c.get("mean", ""), c.get("sd", ""), c.get("se", ""), "", "", "", int(c["skipped"])]
            )
        for s in self.slopes:
            rows.append(
                ["slope", "", s["p"], s.get("N", ""), s.get("M", ""), "",
                 "", "", "", s["slope"], s["stderr"], s["r_squared"], 0]
            )
        return header, rows


def _normalize_cell(case: str, cell, idx: int) -> dict:
    if not isinstance(cell, dict):
        raise UsageError(f"grid cell {idx} must be a mapping, got {cell!r}")

    def entry(key, kind, what):
        if key not in cell:
            raise UsageError(f"grid cell {idx} needs {what}")
        return as_number(cell[key], f"grid cell {idx} entry {key!r}", kind)

    out = {"n": entry("n", int, "a sample size n"), "p": entry("p", int, "a dimension p")}
    if out["n"] < 1 or out["p"] < 1:
        raise UsageError(f"grid cell {idx} needs positive n and p")
    additive = case in ("case3", "case4")
    if additive:
        out["N"] = entry("N", int, f"a basis size N for {case}")
        if out["N"] < 1:
            raise UsageError(f"grid cell {idx} needs positive N")
        if out["p"] * out["N"] + 1 > out["n"]:
            raise UsageError(f"grid cell {idx} violates p*N + 1 <= n ({out['p']}*{out['N']}+1 > {out['n']})")
    if out["p"] > out["n"]:
        raise UsageError(f"grid cell {idx} violates p <= n")
    if case in ("case3", "l1_theorem"):
        out["M"] = entry("M", float, f"a budget M for {case}")
        if not (out["M"] > 0):
            raise UsageError(f"grid cell {idx} needs a positive budget")
    return out


def rate_experiment(
    case: str,
    grid,
    reps: int,
    family: str = TRIGONOMETRIC,
    domain: tuple[float, float] = (0.0, 1.0),
    restarts: int = 64,
    seed: int = 0,
    self_test: bool = False,
) -> RateReport:
    """Monte-Carlo convergence rates of the norm-gap statistic.

    Cases ``case3``/``case4`` use the additive feature map of a dictionary
    applied to each of p iid uniform coordinates (budgeted and unbudgeted
    suprema respectively); ``l1_theorem``/``l3_theorem`` use the raw
    coordinates of an iid uniform(-1, 1) design, whose population second
    moment is I/3 exactly.  Population moment matrices for the additive cases
    come from exact quadrature, so the statistic has no population-estimation
    floor.  Per sample size the report carries mean/sd/se over `reps`
    replications; per fixed (p, N, M) group the fitted log-log slope is
    compared with the theoretical -1/2.

    With ``self_test=True`` the empirical matrix is replaced by the
    population one and every statistic must be exactly 0.
    """
    if case not in RATE_CASES:
        raise UsageError(f"case must be one of {RATE_CASES}, got {case!r}")
    if reps < 1:
        raise UsageError("reps must be at least 1")
    cells = [_normalize_cell(case, c, i) for i, c in enumerate(grid)]
    if not cells:
        raise UsageError("grid must contain at least one cell")
    additive = case in ("case3", "case4")
    budgeted = case in ("case3", "l1_theorem")
    report = RateReport(
        case=case,
        reps=int(reps),
        seed=int(seed),
        family=family if additive else None,
        domain=tuple(domain) if additive else (-1.0, 1.0),
        restarts=restarts if budgeted else None,
        self_test=bool(self_test),
    )
    for ci, cell in enumerate(cells):
        n, p = cell["n"], cell["p"]
        if additive:
            dct = Dictionary(family, cell["N"], tuple(domain))
            sigma = additive_population_moments(dct, p)
            a, b = dct.domain
        else:
            dct = None
            sigma = np.eye(p) / 3.0
            a, b = -1.0, 1.0
        record = dict(cell)
        record.update({"reps": reps, "skipped": False, "values": []})
        try:
            vals = np.empty(reps)
            for rep in range(reps):
                rng = derived_rng(seed, ci, rep)
                x = rng.uniform(a, b, (n, p))
                if additive:
                    feats = np.hstack([basis_matrix(dct, x[:, k]) for k in range(p)])
                else:
                    feats = x
                sigma_hat = sigma if self_test else feats.T @ feats / n
                mp = MomentPair(sigma_hat, sigma, n=n, p=p, n_basis=cell.get("N"), k_x=1.0)
                if budgeted:
                    vals[rep] = z_sup_l1(mp, cell["M"], restarts=restarts, seed=(seed, ci, rep, 1))
                else:
                    vals[rep] = z_sup_ellipsoid(mp)
            record["values"] = [float(v) for v in vals]
            record["mean"] = float(vals.mean())
            if reps >= 2:
                record["sd"] = float(vals.std(ddof=1))
                record["se"] = record["sd"] / math.sqrt(reps)
            else:
                record["sd"] = None
                record["se"] = None
        except DegeneracyError as exc:
            record["skipped"] = True
            record["message"] = str(exc)
        report.cells.append(record)

    groups: dict[tuple, list[dict]] = {}
    for c in report.cells:
        if c["skipped"]:
            continue
        key = (c["p"], c.get("N"), c.get("M"))
        groups.setdefault(key, []).append(c)
    for (p, nb, m), items in groups.items():
        ns = [c["n"] for c in items]
        means = [c["mean"] for c in items]
        if len(set(ns)) < 2 or any(v <= 0 for v in means):
            continue
        slope, stderr, r2 = loglog_slope(ns, means)
        entry = {"p": p, "slope": slope, "stderr": stderr, "r_squared": r2, "theoretical": -0.5}
        if nb is not None:
            entry["N"] = nb
        if m is not None:
            entry["M"] = m
        report.slopes.append(entry)
    return report


@dataclass
class Case5Report:
    """Bias/variance balance over a basis-size sweep at fixed (n, p)."""

    n: int
    p: int
    alpha: float
    rows: list[dict]
    chosen_n_basis: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "alpha": self.alpha,
            "rows": self.rows,
            "chosen_N": self.chosen_n_basis,
        }


def case5_tradeoff(
    p: int,
    n: int,
    n_basis_grid,
    alpha: float,
    reps: int = 20,
    family: str = TRIGONOMETRIC,
    domain: tuple[float, float] = (0.0, 1.0),
    seed: int = 0,
) -> Case5Report:
    """Sweep the basis size to balance approximation bias against the Z statistic.

    The bias proxy is ``p * N^(-1/(2 alpha))`` for smoothness `alpha`; the
    variance proxy is the mean unbudgeted norm-gap statistic at each N.  The
    chosen N minimizes the larger of the two, locating their crossing on the
    grid.
    """
    if not (alpha > 0):
        raise UsageError("alpha must be positive")
    grid = [{"n": n, "p": p, "N": int(nb)} for nb in n_basis_grid]
    rep = rate_experiment("case4", grid, reps, family=family, domain=domain, seed=seed)
    rows = []
    best = None
    for cell in rep.cells:
        if cell["skipped"]:
            continue
        nb = cell["N"]
        bias = p * nb ** (-1.0 / (2.0 * alpha))
        variance = cell["mean"]
        worst = max(bias, variance)
        rows.append({"N": nb, "bias": bias, "variance": variance, "max_of_two": worst})
        if best is None or worst < best[0]:
            best = (worst, nb)
    if best is None:
        raise DegeneracyError("every cell in the basis sweep was skipped")
    return Case5Report(n=n, p=p, alpha=float(alpha), rows=rows, chosen_n_basis=best[1])
