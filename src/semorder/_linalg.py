"""Shared linear-algebra helpers.

Each convention used throughout the package is written once, here:

* symmetry (:func:`check_symmetric`): an absolute tolerance of 1e-10 on the
  max elementwise asymmetry;
* positive semidefinite (:func:`check_psd`): the smallest eigenvalue is at
  least ``-1e-10 * max(trace, 1)``;
* positive definite (:func:`whitener`): the smallest eigenvalue of
  ``eigh(b)`` exceeds ``1e-12 * trace``, and the same eigenpairs give the
  whitener ``Q diag(w)^{-1/2}``;
* least squares (:func:`least_squares`): a Cholesky solve of the normal
  equations where a bound certifies the design well conditioned, else
  ``np.linalg.lstsq(x, y, rcond=RANK_REL_TOL)``, LAPACK's SVD-based
  ``gelsd``, which keeps the singular values above ``RANK_REL_TOL = 1e-10``
  times the largest one.  Forming ``x'x`` squares the condition number, so
  the Cholesky factor ``L`` is used only when ``trace(x'x) ||L^-1||_F^2 <=
  1 / RANK_REL_TOL``: that proves ``cond(x) <= 1e5``, so ``gelsd`` would keep
  every singular value and both solvers give the same rank and, to rounding,
  the same fit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneracyError, UsageError

SYM_TOL = 1e-10
PSD_REL_TOL = 1e-10
PD_REL_TOL = 1e-12
RANK_REL_TOL = 1e-10

__all__ = [
    "check_symmetric",
    "check_psd",
    "whitener",
    "gen_eigh",
    "pinv_solve_psd",
    "least_squares",
    "SYM_TOL",
    "PSD_REL_TOL",
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


def check_psd(w: np.ndarray, name: str = "matrix") -> None:
    """Raise UsageError unless the ascending eigenvalues `w` pass the PSD rule."""
    if w.size and w[0] < -PSD_REL_TOL * max(float(w.sum()), 1.0):
        raise UsageError(f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})")


def whitener(w: np.ndarray, q: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``q diag(w)^{-1/2}`` for the ``eigh`` pair ``(w, q)`` of a positive definite `b`.

    The result `white` satisfies ``white' b white = I``.  Raises
    DegeneracyError, reporting ``Lambda_min = sqrt(w_min)``, unless ``w_min >
    PD_REL_TOL * trace(b)``.
    """
    floor = PD_REL_TOL * max(float(w.sum()), 0.0)
    if w[0] <= floor:
        lam = float(np.sqrt(max(w[0], 0.0)))
        raise DegeneracyError(
            f"{name} numerically singular: Lambda_min = {lam:.3e} "
            f"(Lambda_min^2 = {w[0]:.3e} <= 1e-12 * trace = {floor:.3e})"
        )
    return q / np.sqrt(w)


def gen_eigh(a: np.ndarray, white: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a v = w b v`` for symmetric `a`, given ``white = whitener(*eigh(b))``.

    The eigenpairs ``(w, u)`` of ``white' a white`` give ``v = white u``.
    Returns ascending eigenvalues and eigenvectors normalized to ``v' b v = 1``.
    """
    c = white.T @ a @ white
    w, u = np.linalg.eigh(0.5 * (c + c.T))
    return w, white @ u


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
    check_psd(w, "moment matrix")
    cutoff = PD_REL_TOL * max(float(w[-1]), 0.0) if w[-1] > 0 else 0.0
    keep = w > cutoff
    degenerate = bool(np.count_nonzero(keep) < s.shape[0])
    w_inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    beta = (v * w_inv) @ (v.T @ c)
    return beta, degenerate


def least_squares(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Least-squares coefficients of `y` on the columns of `x`, and the numerical rank of `x`.

    The Cholesky factor ``L`` of ``g = x'x`` is accepted only under the
    certificate ``trace(g) ||L^-1||_F^2 <= 1 / RANK_REL_TOL``.  Its left side
    is at least ``cond(x)^2``, so a certified `x` has full column rank under
    the rank rule and is solved from ``g``.  Any other `x` (singular `g`, a
    failed or NaN certificate) goes to ``np.linalg.lstsq`` with ``rcond =
    RANK_REL_TOL``, which returns the minimum-norm solution.
    """
    g = x.T @ x
    try:
        inv = np.linalg.inv(np.linalg.cholesky(g))
        with np.errstate(over="ignore"):
            bound = float(np.trace(g)) * float(np.sum(inv * inv))
    except np.linalg.LinAlgError:
        bound = math.nan
    if not (bound <= 1.0 / RANK_REL_TOL):
        beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=RANK_REL_TOL)
        return beta, int(rank)
    return inv.T @ (inv @ (x.T @ y)), x.shape[1]

