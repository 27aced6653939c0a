"""Empirical-process suprema for linear classes, bound formulas, and rate runs.

For a feature map ``psi`` with empirical and population second-moment matrices
``Sigma_hat`` and ``Sigma``, the central statistic is

    Z = sup { |b' (Sigma_hat - Sigma) b| : b' Sigma b <= 1 },

the worst-case gap between empirical and population squared norms over the
unit ellipsoid of the class.  Over the full ellipsoid Z is the largest
absolute generalized eigenvalue and is computed exactly
(:func:`z_sup_ellipsoid`).  Intersected with an l1 budget it is NP-hard in
general; :func:`z_sup_l1` computes it exactly in low dimension by enumerating
the KKT points on every face of the l1 ball, up to ``d = L1_MAX_DIM``.

The module also evaluates the closed-form bound ingredients (entropy bound,
Dudley-type integral, the plug-in rate :func:`delta_n`), checks the two side
conditions for additive designs, runs Monte-Carlo rate experiments against the
theoretical n^{-1/2} slope, and provides a Rademacher symmetrization
diagnostic.  Bound formulas adopt the convention that universal constants
equal 1, so their values are meaningful up to constants only.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import check_psd, check_symmetric, gen_eigh, whitener
from ._rng import derived_rng
from .dictionary import (
    TRIGONOMETRIC,
    Dictionary,
    basis_matrix,
    moment_matrix,
    moment_vector,
)
from .errors import CapacityError, DegeneracyError, UsageError, as_number

RATE_CASES = ("case3", "case4", "l1_theorem", "l3_theorem")
EPS = np.finfo(np.float64).eps

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
        if not (np.isfinite(sh).all() and np.isfinite(s).all()):
            raise UsageError("moment matrices must be finite")
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


L1_MAX_DIM = 9


def _feasible_best(cands: np.ndarray, budget: float, sigma: np.ndarray, delta: np.ndarray) -> tuple[float, np.ndarray]:
    """Best of the candidate rows, each rescaled onto the l1 ball ∩ Sigma ellipsoid.

    A row ``u`` becomes ``b = t u`` with ``t = (1 - 1e-12) min(budget /
    ||u||_1, (u' Sigma u)^{-1/2})``, so every ``b`` is feasible and its value
    ``|b' Delta b|`` a true lower bound.  Rows are first scaled to max-norm 1;
    zero rows and rows holding a non-finite entry are dropped (the
    generalized eigenvectors that lead the rows always remain).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cands / np.abs(cands).max(axis=1, keepdims=True)
    u = u[np.isfinite(u).all(axis=1)]
    quad = np.einsum("ij,ij->i", u @ sigma, u)
    t = np.minimum(budget / np.abs(u).sum(axis=1), 1.0 / np.sqrt(quad)) * (1.0 - 1e-12)
    b = t[:, None] * u
    vals = np.abs(np.einsum("ij,ij->i", b @ delta, b))
    best = int(np.argmax(vals))
    return float(vals[best]), b[best]


def _face_candidates(delta: np.ndarray, sigma: np.ndarray, budget: float, k: int) -> np.ndarray:
    """KKT candidates of families (b) and (c) on every face with support size `k`, as rows in R^d.

    A face is a support T with signs s whose first entry is +1.  Rows of a
    degenerate face may be poor or non-finite.
    """
    d = delta.shape[0]
    supports = np.array(list(itertools.combinations(range(d), k)), dtype=np.intp)
    signs = np.array([(1.0,) + rest for rest in itertools.product((1.0, -1.0), repeat=k - 1)])
    rows, cols = supports[:, :, None], supports[:, None, :]
    d_tt, s_tt = delta[rows, cols], sigma[rows, cols]
    # (b) ellipsoid slack: Delta_TT y = s, the minimum-norm solution when Delta_TT is singular
    lam, vec = np.linalg.eigh(d_tt)
    inv = np.where(np.abs(lam) > k * EPS * np.abs(lam).max(axis=1, keepdims=True), 1.0 / lam, 0.0)
    cands = (signs @ (vec * inv[:, None, :]) @ np.swapaxes(vec, 1, 2))[:, :, None, :]
    if k > 1:
        cands = np.concatenate([cands, _both_active(d_tt, s_tt, signs, budget)], axis=2)
    out = np.zeros(cands.shape[:3] + (d,))
    np.put_along_axis(out, np.broadcast_to(supports[:, None, None, :], cands.shape), cands, axis=3)
    return out.reshape(-1, d)


def _both_active(d_tt: np.ndarray, s_tt: np.ndarray, signs: np.ndarray, budget: float) -> np.ndarray:
    """Family (c) of :func:`z_sup_l1`: stationary points with ``s'b = budget`` and ``b' Sigma_TT b = 1``.

    With ``b = W u`` and ``W' Sigma_TT W = I`` the face is the unit sphere cut
    by the plane ``g'u = budget``, ``g = W's``: ``u = u0 + P w`` with ``u0``
    the plane's point nearest 0, P an orthonormal basis of g-perp and ``||w||
    = r``, ``r^2 = 1 - budget^2 / g'g``.  The objective ``w'Aw + 2a'w`` is
    stationary where ``w = -(A - mu I)^+ a``; the multipliers mu solve ``a'(A
    - mu I)^-2 a = r^2``, a quadratic eigenproblem whose linearization
    ``[[A, I], [aa'/r^2, A]]`` gives every root among its eigenvalues (Gander,
    Golub & von Matt 1989).  The hard case ``mu = alpha_j``, an eigenvalue of
    A, is completed along its eigenvector to norm r, with both signs.  Returns
    candidate rows of shape (supports, signs, 4(k-1), k); a face whose plane
    misses the sphere gives NaN rows.
    """
    m = d_tt.shape[1] - 1
    om, q = np.linalg.eigh(s_tt)
    white = q / np.sqrt(om)[:, None, :]
    c_mat = np.swapaxes(white, 1, 2) @ d_tt @ white
    g = signs @ white
    gg = np.einsum("csi,csi->cs", g, g)
    r2 = 1.0 - budget * budget / gg
    u0 = (budget / gg)[..., None] * g
    # a Householder reflection sends g to a multiple of e_1; its other columns span g-perp
    h = g / np.sqrt(gg)[..., None]
    h[..., 0] += np.where(h[..., 0] >= 0.0, 1.0, -1.0)  # now h'h = 2 |h_0|
    p = (np.eye(m + 1) - h[..., :, None] * h[..., None, :] / np.abs(h[..., :1, None]))[..., 1:]
    pt = np.swapaxes(p, -1, -2)
    a_mat = pt @ c_mat[:, None] @ p
    a_vec = np.einsum("csji,csj->csi", p, u0 @ c_mat)
    outer = a_vec[..., :, None] * a_vec[..., None, :] / r2[..., None, None]
    lin = np.block([[a_mat, np.broadcast_to(np.eye(m), a_mat.shape)], [outer, a_mat]])
    ok = (r2 > 0.0) & np.isfinite(lin).all(axis=(-2, -1))
    lin[~ok] = 0.0
    alpha, qa = np.linalg.eigh(a_mat)
    mus = np.concatenate([np.linalg.eigvals(lin).real, alpha], axis=-1)
    a_hat = np.einsum("csji,csj->csi", qa, a_vec)
    den = alpha[..., None, :] - mus[..., :, None]
    scale = np.abs(alpha).max(axis=-1, keepdims=True)[..., None] + np.abs(mus)[..., None]
    w_hat = np.where(np.abs(den) > 8.0 * EPS * scale, -a_hat[..., None, :] / den, 0.0)
    hard = w_hat[..., 2 * m:, :]
    lift = np.sqrt(np.maximum(r2[..., None] - (hard * hard).sum(axis=-1), 0.0))[..., None] * np.eye(m)
    w_hat = np.concatenate([w_hat[..., : 2 * m, :], hard + lift, hard - lift], axis=-2)
    u = u0[..., None, :] + w_hat @ np.swapaxes(qa, -1, -2) @ pt
    u[~ok] = np.nan
    return u @ np.swapaxes(white, 1, 2)[:, None]


def z_sup_l1(mp: MomentPair, budget: float, return_details: bool = False):
    """Norm-gap supremum under an l1 budget, by enumerating KKT points.

    Maximizes ``|b' Delta b|``, ``Delta = Sigma_hat - Sigma``, over the
    intersection of the l1 ball of radius `budget` with the Sigma unit
    ellipsoid.  A maximizer lies in the relative interior of a face of the l1
    ball: a support T with signs s, taken up to a global sign, ``(3^d - 1)/2``
    faces in all.  There it is a KKT point of one of three families:

    * (a) l1 slack: a generalized eigenvector of ``(Delta, Sigma)``;
    * (b) ellipsoid slack: the solution of ``Delta_TT y = s``, minimum-norm
      when ``Delta_TT`` is singular; for ``|T| = 1`` these are the vertices;
    * (c) both constraints active: a trust-region problem on the face's
      plane, solved in :func:`_both_active`.

    Every KKT point of a face is kept, not only its global one, since the
    face's sign constraints can make a local-nonglobal point the maximizer
    (Martinez 1994).  The candidates of each support size are computed as
    one batch; each is rescaled onto the feasible set and shrunk by ``1 -
    1e-12``, so the value is a true lower bound, and with the enumeration
    complete it is the maximum to that shrink.  Sigma must pass the positive
    definite rule of :func:`semorder._linalg.whitener` (DegeneracyError
    naming Lambda_min), and ``d <= L1_MAX_DIM`` (CapacityError).

    With ``return_details=True`` also returns a dict holding the maximizer
    (``argmax``) and the certified upper bound ``upper = min(z_ellipsoid, M^2
    max|Delta_ij|)`` (valid since ``|b' Delta b| <= ||b||_1^2
    max|Delta_ij|``).
    """
    if not (budget > 0):
        raise UsageError(f"budget must be positive, got {budget!r}")
    d = mp.dim
    if d > L1_MAX_DIM:
        raise CapacityError(
            f"z_sup_l1 enumerates the (3^d - 1)/2 = {(3**d - 1) // 2} faces of the l1 ball; "
            f"d={d} exceeds L1_MAX_DIM = {L1_MAX_DIM}"
        )
    delta = mp.sigma_hat - mp.sigma
    w_gen, v_gen = gen_eigh(delta, _whiten(mp.sigma))
    # a degenerate face (a singular block, a plane that misses the ellipsoid,
    # an extreme budget) may give non-finite rows: _feasible_best drops them
    with np.errstate(all="ignore"):
        faces = [_face_candidates(delta, mp.sigma, budget, k) for k in range(1, d + 1)]
    val, arg = _feasible_best(np.concatenate([v_gen.T] + faces), budget, mp.sigma, delta)
    if return_details:
        upper = min(budget * budget * float(np.max(np.abs(delta))), float(np.max(np.abs(w_gen))))
        return val, {"argmax": arg, "upper": upper}
    return val


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
    compared with the theoretical -1/2.  The budgeted cases take the exact
    supremum of :func:`z_sup_l1`, so their feature dimension (``p*N`` or p) is
    capped at ``L1_MAX_DIM`` (CapacityError).  A cell whose population matrix
    fails the positive definite rule is skipped, its message naming
    ``Lambda_min``.

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
                    vals[rep] = z_sup_l1(mp, cell["M"])
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
