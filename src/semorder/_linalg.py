"""Shared linear-algebra helpers: every linear solve and rank decision of the package.

Each convention used throughout the package is written once, here:

* symmetry (:func:`check_symmetric`): finite entries, and an absolute
  tolerance of 1e-10 on the max elementwise asymmetry;
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
  the same fit.  The policy runs in two steps: a factor step forms ``L^-1``
  and the certificate once per design, and every target fitted on that
  design shares the one :class:`Factor`, certified or not;
  :func:`least_squares` then solves once per right-hand side, ``beta = L^-T
  L^-1 x'y`` in three ``np.dot`` products.  The factor step of one design
  is :func:`factorize`.  ``regress.ConditionalFits`` instead grows each
  factor of its sigma table from its parent's along the subset tree
  (:func:`extend`): a design of predictor set S is the design of ``S -
  {max S}`` and one block more, so the exact search over p variables costs
  ``2^p - 1`` block-row steps, taken in stacks, and ``p 2^(p-1)`` solves;
* row compression (:func:`row_compress`): the R factor of a Householder QR,
  folded over row blocks as a tree of stacked leaf QRs, in place of a tall
  matrix whose column space is all that a fit reads;
* span membership on the lasso path (:func:`moment_solve`): a Householder
  QR pivot at most ``RANK_REL_TOL`` times the design's largest column norm.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, UsageError

SYM_TOL = 1e-10
PSD_REL_TOL = 1e-10
PD_REL_TOL = 1e-12
RANK_REL_TOL = 1e-10
# entries of one leaf of row_compress.  LAPACK's QR of a matrix this narrow
# runs column by column through level-2 BLAS; a leaf this small stays in
# cache and is too small for OpenBLAS to spread over threads.  On a 2-vCPU
# VM a 1000 x 64 matrix folds in 1.6 ms, against 1.3 ms in one QR on one BLAS
# thread and 3.4 ms on two, and one QR of that size took 0.35 to 0.47 s in 2
# of 16 CLI runs (thread hand-offs on a busy machine).  The leaves of one
# tree level are one stacked ``np.linalg.qr`` call
FOLD_CELLS = 8192
# rows of one diagonal block of factorize's block inverse (_lower_inverse),
# chosen when factorize served the exact search: on a 2-vCPU VM its 511
# designs of up to 41 columns inverted in 4.5 to 6.1 ms with blocks of 8
# rows, against 4.8 to 6.7 ms with 4, 6.2 to 8.3 ms with 16, 6.8 to 9.4 ms
# row by row and 9.6 to 12.8 ms for np.linalg.inv of each whole factor
INV_BLOCK = 8

__all__ = [
    "check_symmetric",
    "check_psd",
    "whitener",
    "gen_eigh",
    "Factor",
    "Factors",
    "factorize",
    "extend",
    "least_squares",
    "row_compress",
    "moment_solve",
    "SYM_TOL",
    "PSD_REL_TOL",
    "PD_REL_TOL",
    "RANK_REL_TOL",
    "FOLD_CELLS",
]


def check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and symmetry within SYM_TOL and return the symmetrized matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise UsageError(f"{name} must be finite")
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


class Factor(NamedTuple):
    """The factor step of :func:`least_squares` on one design `x`.

    ``inv`` is ``L^-1`` for the Cholesky factor ``L`` of ``x'x``, exactly
    lower triangular, when the certificate holds, else None: every
    right-hand side then goes to ``gelsd``.
    """

    inv: np.ndarray | None


class Factors(NamedTuple):
    """A stack of k Cholesky factors of Gram matrices of one order d, as :func:`extend` grows them.

    ``chol`` holds ``L`` and ``inv`` holds ``L^-1`` (each ``(k, d, d)``),
    ``trace`` the Gram traces and ``norm`` the squared Frobenius norms of
    ``L^-1`` (each ``(k,)``): the two sides of the certificate.
    """

    chol: np.ndarray
    inv: np.ndarray
    trace: np.ndarray
    norm: np.ndarray

    @classmethod
    def empty(cls, k: int = 1) -> "Factors":
        """k factors of the Gram matrix of no column, which :func:`extend` grows from."""
        return cls(np.zeros((k, 0, 0)), np.zeros((k, 0, 0)), np.zeros(k), np.zeros(k))

    def take(self, rows) -> "Factors":
        """The factors at `rows` of the stack."""
        return Factors(*(a[rows] for a in self))


def factorize(x: np.ndarray) -> Factor:
    """The certified Cholesky factor of ``g = x'x`` of one ``(m, d)`` design, once for every right-hand side fitted on `x`.

    ``L^-1`` comes from :func:`_lower_inverse`, by block forward
    substitution.  ``L`` is accepted only under the certificate ``trace(g)
    ||L^-1||_F^2 <= 1 / RANK_REL_TOL``.  Its left side is at least
    ``cond(x)^2``, so a certified `x` has full column rank under the rank
    rule.  A singular `g` or a failed or NaN certificate gives
    ``Factor(None)``; the inverse and the certificate are formed under one
    ``np.errstate``, so an inverse that overflows fails the certificate
    without a warning.  :class:`UsageError` when ``trace(g)`` is not finite
    (a non-finite entry, or squares that overflow).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = x.T @ x
        trace = np.trace(g)
    if not np.isfinite(trace):
        raise UsageError(f"design must be finite with finite squares, got trace(x'x) = {trace}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            inv = _lower_inverse(np.linalg.cholesky(g)[None])[0]
            bound = trace * np.sum(inv * inv)
    except np.linalg.LinAlgError:
        return Factor(None)
    return Factor(inv if bound <= 1.0 / RANK_REL_TOL else None)


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    """The inverses of a stack ``(k, d, d)`` of lower-triangular `l`, by block forward substitution.

    Block row i of ``M = L^-1``, INV_BLOCK rows at a time, is ``M_ii =
    tril(L_ii^-1)`` by ``np.linalg.inv`` and, left of it, ``M_i,<i = -M_ii
    (L_i,<i M_<i,<i)``: two stacked products with the block rows above,
    already done.  ``np.linalg.inv`` is an LU with partial pivoting, which
    leaves rounding noise above the diagonal; ``np.tril`` drops it, so `M`
    is exactly lower triangular.  This is as stable as the general inverse
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, section
    14.2), and each member is bit for bit the inverse of its factor alone.
    """
    d = l.shape[-1]
    inv = np.zeros_like(l)
    for i in range(0, d, INV_BLOCK):
        j = min(i + INV_BLOCK, d)
        diag = np.tril(np.linalg.inv(l[:, i:j, i:j]))
        inv[:, i:j, i:j] = diag
        if i:
            inv[:, i:j, :i] = -diag @ (l[:, i:j, :i] @ inv[:, :i, :i])
    return inv


def extend(parent: Factors, g_pb: np.ndarray, g_bb: np.ndarray) -> tuple[Factors, np.ndarray]:
    """Each factor of `parent` grown by one block row: the factors of ``[[G_P, G_Pb], [G_Pb', G_bb]]``.

    `g_pb` is the ``(k, d, b)`` stack of cross products of the parent's
    columns with the b new ones, `g_bb` the ``(k, b, b)`` stack of the new
    block's own.  ``W`` solves ``L_P W = G_Pb``: the product ``L_P^-1
    G_Pb``, refined once against ``L_P``.  On near-deterministic sine
    chains the product alone left sigma^2 errors 16 to 88 times larger;
    refined, it matches ``np.linalg.solve``, whose LU of each ``L_P`` costs
    as much as factoring the parent's Gram matrix afresh.  The grown factor
    is ``L = [[L_P, 0], [W', L_22]]`` with ``L_22 = chol(G_bb - W'W)``, and
    its inverse ``[[L_P^-1, 0], [-L_22^-1 W' L_P^-1, L_22^-1]]``,
    ``L_22^-1`` exactly lower triangular.  The certificate's two sides are
    carried forward: the trace gains ``trace(G_bb)`` and the norm the
    squares of the new block row.  Both only grow, so a design that fails
    the certificate has no certified descendant.  Returns the grown stack
    and which members are certified (:func:`factorize`'s rule); a member
    whose Schur complement has no Cholesky factor is not, and its factor is
    not to be used.  Every step is a stacked call, so each member is bit
    for bit its own factor grown alone.
    """
    k, d, b = parent.chol.shape[0], parent.chol.shape[-1], g_bb.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        w = parent.inv @ g_pb
        w += parent.inv @ (g_pb - parent.chol @ w)
        wt = w.transpose(0, 2, 1)
        schur = g_bb - wt @ w
        try:
            l22, factored = np.linalg.cholesky(schur), True
        except np.linalg.LinAlgError:
            l22, factored = _cholesky_each(schur)
        m22 = np.tril(np.linalg.inv(l22))
        row = -(m22 @ (wt @ parent.inv))
        trace = parent.trace + g_bb.diagonal(0, 1, 2).sum(1)
        norm = parent.norm + (row * row).sum((1, 2)) + (m22 * m22).sum((1, 2))
        ok = (trace * norm <= 1.0 / RANK_REL_TOL) & factored
    chol = np.zeros((k, d + b, d + b))
    chol[:, :d, :d], chol[:, d:, :d], chol[:, d:, d:] = parent.chol, wt, l22
    inv = np.zeros_like(chol)
    inv[:, :d, :d], inv[:, d:, :d], inv[:, d:, d:] = parent.inv, row, m22
    return Factors(chol, inv, trace, norm), ok


def _cholesky_each(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factors of a stack `a` taken one member at a time, an identity where one fails, and which succeeded."""
    out, ok = np.empty_like(a), np.ones(a.shape[0], dtype=bool)
    for i, member in enumerate(a):
        try:
            out[i] = np.linalg.cholesky(member)
        except np.linalg.LinAlgError:
            out[i], ok[i] = np.eye(a.shape[-1]), False
    return out, ok


def least_squares(x: np.ndarray, y: np.ndarray, factor: Factor | None = None) -> tuple[np.ndarray, int]:
    """Least-squares coefficients of `y` on the columns of `x`, and the numerical rank of `x`.

    `factor` is :func:`factorize` of the same `x`, computed here when not
    given; either way the result is the same, bit for bit.  A certified `x`
    is solved from ``M = L^-1`` as ``(y'x M') M``, three matrix-vector
    ``np.dot`` products: on a 60 x 41 design they take 4.7 us against 6.3 us
    for ``@`` on transposed views (2-vCPU VM).
    Any other goes to ``np.linalg.lstsq`` with ``rcond = RANK_REL_TOL``,
    which returns the minimum-norm solution.
    """
    inv = (factorize(x) if factor is None else factor).inv
    if inv is None:
        beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=RANK_REL_TOL)
        return beta, int(rank)
    return np.dot(np.dot(inv, np.dot(y, x)), inv), x.shape[1]


def row_compress(blocks) -> np.ndarray:
    """The R factor of a Householder QR of the row blocks `blocks`, stacked, one block at a time.

    Each block is reduced by a tree of QRs (TSQR; Demmel, Grigori, Hoemmen &
    Langou, SIAM J. Sci. Comput. 2012), so no more than one block is ever
    held.  A level splits its rows into equal leaves of at most ``leaf =
    max(FOLD_CELLS // width, 2 width + 2)`` rows, factors them all in one
    stacked ``np.linalg.qr(..., mode="r")`` call and stacks their R factors
    over the rows left over; the first level of a block runs on the block
    itself, the R factor of the blocks before it then joins the stack, and
    levels repeat until one leaf holds the stack.  A leaf has more rows than
    columns, so every level shrinks the stack.  The stacked matrix ``a``
    then satisfies ``||a b|| = ||r b||`` for every b, and so does every
    column subset of ``a`` with the same columns of `r`; Householder QR is
    columnwise backward stable (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, Thm 19.4), and a column that is zero in every block
    stays exactly zero.  `r` has ``min(rows, columns)`` rows.
    """
    r = None
    for block in blocks:
        width = block.shape[1]
        leaf = max(FOLD_CELLS // width, 2 * width + 2)
        a = _leaf_level(block, leaf) if block.shape[0] > leaf else block
        if r is not None:
            a = np.concatenate([r, a])
        while a.shape[0] > leaf:
            a = _leaf_level(a, leaf)
        r = np.linalg.qr(a, mode="r")
    return r


def _leaf_level(a: np.ndarray, leaf: int) -> np.ndarray:
    """The R factors of the rows of `a` in equal leaves of at most `leaf` rows, stacked over the rows left over."""
    count = -(-a.shape[0] // leaf)
    rows = count * (a.shape[0] // count)
    tops = np.linalg.qr(a[:rows].reshape(count, -1, a.shape[1]), mode="r")
    return np.concatenate([tops.reshape(-1, a.shape[1]), a[rows:]])


def moment_solve(x: np.ndarray, s: np.ndarray, norm: float) -> np.ndarray | None:
    """Solve ``(x'x / n) d = s`` for the n rows of `x`, or None when its last column is in the span of the others.

    One Householder QR of `x` decides and solves.  The last column is in the
    span (of none, for a lone column) when R has fewer rows than columns or
    its last pivot, the column's distance from that span, is at most
    ``RANK_REL_TOL * norm``, `norm` being the largest column norm of the
    design.  Otherwise ``d = n R^-1 R^-T s``, empty when `x` has no column.
    """
    r = np.linalg.qr(x, mode="r")
    if r.shape[0] < r.shape[1] or (r.size and abs(r[-1, -1]) <= RANK_REL_TOL * norm):
        return None
    return x.shape[0] * np.linalg.solve(r, np.linalg.solve(r.T, s))
