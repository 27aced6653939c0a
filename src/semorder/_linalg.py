"""Shared linear-algebra helpers.

Conventions used throughout the package:

* symmetry is checked with an absolute tolerance of 1e-10 on the max
  elementwise asymmetry;
* a symmetric matrix counts as numerically positive definite when its
  smallest eigenvalue exceeds ``1e-12 * trace``;
* least-squares ranks are decided at ``1e-10 * (largest column norm)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneracyError, UsageError

SYM_TOL = 1e-10
PD_REL_TOL = 1e-12
RANK_REL_TOL = 1e-10

__all__ = [
    "check_symmetric",
    "gen_eigh",
    "inv_sqrt_pd",
    "min_norm_lstsq",
    "pinv_solve_psd",
    "project_l1",
    "SYM_TOL",
    "PD_REL_TOL",
    "RANK_REL_TOL",
]


def check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetry within SYM_TOL and return the symmetrized matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"{name} must be square, got shape {a.shape}")
    gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if gap > SYM_TOL:
        raise UsageError(f"{name} is not symmetric (max asymmetry {gap:.3e})")
    return 0.5 * (a + a.T)


def inv_sqrt_pd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix."""
    a = check_symmetric(a, name)
    w, v = np.linalg.eigh(a)
    floor = PD_REL_TOL * max(float(np.trace(a)), 0.0)
    if w[0] <= floor:
        raise DegeneracyError(
            f"{name} is numerically singular (min eigenvalue {w[0]:.3e}, "
            f"threshold {floor:.3e})"
        )
    return (v / np.sqrt(w)) @ v.T


def gen_eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a v = w b v`` for symmetric `a` and symmetric positive definite `b`.

    Cholesky whitening, the reduction LAPACK's ``sygv`` makes: with ``b = L L'``
    the eigenpairs of ``L^{-1} a L^{-T}`` give ``w`` and ``v = L^{-T} u``.
    Returns ascending eigenvalues and eigenvectors normalized to ``v' b v = 1``;
    raises ``LinAlgError`` when `b` is not positive definite.
    """
    low = np.linalg.cholesky(b)
    c = np.linalg.solve(low, np.linalg.solve(low, a).T)
    w, u = np.linalg.eigh(0.5 * (c + c.T))
    return w, np.linalg.solve(low.T, u)


def min_norm_lstsq(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least squares via SVD.

    Singular values below ``RANK_REL_TOL * max column norm`` are treated as
    zero.  Returns ``(beta, rank)``, the rank being the number of singular
    values kept.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise UsageError(f"design must be 2-d, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise UsageError(f"response shape {y.shape} does not match design rows {x.shape[0]}")
    if x.shape[1] == 0:
        return np.zeros(0), 0
    col_norms = np.linalg.norm(x, axis=0)
    cutoff = RANK_REL_TOL * float(col_norms.max())
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    keep = s > cutoff
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    beta = vt.T @ (s_inv * (u.T @ y))
    return beta, int(np.count_nonzero(keep))


def pinv_solve_psd(s: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve ``s @ beta = c`` for symmetric PSD `s`, minimum-norm if singular.

    Returns ``(beta, degenerate)`` where `degenerate` marks a rank-deficient
    system solved through the pseudo-inverse.
    """
    s = check_symmetric(s, "moment matrix")
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (s.shape[0],):
        raise UsageError(f"vector shape {c.shape} does not match matrix {s.shape}")
    if s.shape[0] == 0:
        return np.zeros(0), False
    w, v = np.linalg.eigh(s)
    if w[0] < -SYM_TOL * max(float(np.trace(s)), 1.0):
        raise UsageError(f"moment matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    cutoff = PD_REL_TOL * max(float(w[-1]), 0.0) if w[-1] > 0 else 0.0
    keep = w > cutoff
    degenerate = bool(np.count_nonzero(keep) < s.shape[0])
    w_inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    beta = (v * w_inv) @ (v.T @ c)
    return beta, degenerate


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of `v` onto the l1 ball of the given radius.

    Sort-based simplex projection; O(d log d).  A 2-d `v` is projected row by
    row, each row onto its own ball.
    """
    if radius < 0:
        raise UsageError("l1 radius must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    if radius == 0:
        return np.zeros_like(v)
    rows = np.atleast_2d(v)
    mag = np.abs(rows)
    u = -np.sort(-mag, axis=1)
    css = np.cumsum(u, axis=1)
    d = u.shape[1]
    idx = d - 1 - np.argmax((u * np.arange(1, d + 1) > css - radius)[:, ::-1], axis=1)
    theta = (css[np.arange(rows.shape[0]), idx] - radius) / (idx + 1.0)
    theta[mag.sum(axis=1) <= radius] = 0.0
    return (np.sign(rows) * np.maximum(mag - theta[:, None], 0.0)).reshape(v.shape)
