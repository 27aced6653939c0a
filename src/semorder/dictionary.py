"""Bounded 1-d function dictionaries and additive design matrices.

A dictionary is a family of ``N`` basis functions on a closed interval
``[a, b]``.  Three families are supported, all uniformly bounded by 1:

``piecewise-constant``
    Indicators of the ``N`` equal-width subintervals of ``[a, b]``; the last
    subinterval is closed at ``b`` so the family is a partition of unity.
``cubic-b-spline``
    Clamped cubic B-splines on equispaced knots (``N >= 4`` required); also a
    partition of unity, and the span contains all cubic polynomials on
    ``[a, b]``.
``trigonometric``
    ``psi_r(x) = cos(r * pi * (x - a) / (b - a))`` for ``r = 1..N``; under a
    uniform design these are orthogonal with second moment 1/2 and mean 0.

Inputs are clamped to ``[a, b]`` before evaluation, so evaluation is defined
(and bounded) on the whole real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import REQUIRED, UsageError, as_count, as_tuple, read_keys

PIECEWISE_CONSTANT = "piecewise-constant"
CUBIC_B_SPLINE = "cubic-b-spline"
TRIGONOMETRIC = "trigonometric"
FAMILIES = (PIECEWISE_CONSTANT, CUBIC_B_SPLINE, TRIGONOMETRIC)
DICTIONARY_KEYS = {"family": REQUIRED, "size": REQUIRED, "domain": REQUIRED}

__all__ = [
    "Dictionary",
    "eval_basis",
    "basis_matrix",
    "design_matrix",
    "moment_vector",
    "moment_matrix",
    "PIECEWISE_CONSTANT",
    "CUBIC_B_SPLINE",
    "TRIGONOMETRIC",
    "FAMILIES",
]


@dataclass(frozen=True)
class Dictionary:
    """A basis family of a given size on a finite interval.

    Parameters
    ----------
    family : str
        One of :data:`FAMILIES`.
    size : int
        Number of basis functions ``N``; at least 1 (at least 4 for splines).
    domain : tuple of float
        Interval ``(a, b)`` with ``a < b``, both finite.
    """

    family: str
    size: int
    domain: tuple[float, float]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "size", as_count(self.size, "dictionary size"))
        domain = as_tuple(self.domain, "dictionary domain")
        if len(domain) != 2 or not (domain[0] < domain[1] and math.isfinite(domain[1] - domain[0])):
            raise UsageError(f"dictionary domain must be a finite interval [a, b] with a < b, got {self.domain!r}")
        object.__setattr__(self, "domain", domain)
        if self.family == CUBIC_B_SPLINE:
            if self.size < 4:
                raise UsageError(f"cubic-b-spline needs size >= 4, got {self.size}")
            # the spline recursion divides by the gaps between breakpoints
            if not np.all(np.diff(self.knots()[3:-3]) > 0):
                raise UsageError(f"domain {self.domain!r} is too narrow for {self.size - 2} distinct spline breakpoints")

    @property
    def sup_bound(self) -> float:
        """Uniform bound on every basis function (1 for all families)."""
        return 1.0

    def clamp(self, x) -> np.ndarray:
        a, b = self.domain
        return np.clip(np.asarray(x, dtype=np.float64), a, b)

    def knots(self) -> np.ndarray:
        """Clamped knot vector (cubic-b-spline only)."""
        if self.family != CUBIC_B_SPLINE:
            raise UsageError(f"knots are only defined for {CUBIC_B_SPLINE}")
        a, b = self.domain
        inner = np.linspace(a, b, self.size - 2)
        return np.concatenate([np.full(3, a), inner, np.full(3, b)])

    def to_config(self) -> dict:
        return {"family": self.family, "size": self.size, "domain": list(self.domain)}

    @classmethod
    def from_config(cls, cfg: dict, path: str = "dictionary") -> "Dictionary":
        """The dictionary of config object `cfg`; :func:`semorder.errors.read_keys` names `path` on a key fault."""
        return cls(**read_keys(cfg, path, DICTIONARY_KEYS))


def basis_matrix(d: Dictionary, x) -> np.ndarray:
    """Evaluate all basis functions at points `x`.

    A scalar or 1-d `x` of ``n`` points gives an array of shape
    ``(n, d.size)``.  A 2-d `x` of shape ``(n, p)`` gives ``(n, p * d.size)``:
    column k's block sits in columns ``k * d.size .. (k + 1) * d.size - 1`` and
    equals ``basis_matrix(d, x[:, k])`` bit for bit.  Inputs are clamped to
    the domain first, so +-inf map to its ends; :class:`UsageError` for NaN
    or for more than 2 dimensions.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 2:
        raise UsageError(f"basis points must be a scalar, 1-d or 2-d array, got shape {x.shape}")
    if np.isnan(x).any():
        raise UsageError("basis points must not be NaN")
    x = d.clamp(x if x.ndim == 2 else x.reshape(-1, 1))
    a, b = d.domain
    (n_pts, p), size = x.shape, d.size
    if d.family == PIECEWISE_CONSTANT:
        h = (b - a) / size
        idx = np.clip(np.floor((x - a) / h).astype(np.int64), 0, size - 1)
        out = np.zeros((n_pts, p * size))
        out.reshape(-1)[np.arange(0, n_pts * p * size, size) + idx.reshape(-1)] = 1.0
        return out
    if d.family == CUBIC_B_SPLINE:
        return _cubic_bspline(x, d.knots())
    # trigonometric
    t = (x - a) / (b - a)
    r = np.arange(1, size + 1)
    return np.cos(np.pi * (t[:, :, None] * r)).reshape(n_pts, p * size)


def _cubic_bspline(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """All ``m = len(t) - 4`` cubic B-splines on knots `t` at the points of a 2-d `x` in ``[t[3], t[-4]]``.

    Returns shape ``(n, p * m)``, one block of `m` columns per column of `x`.
    De Boor's recursion with the operations of FITPACK's ``fpbspl`` on the
    same operands, so the values match the reference implementation bit for
    bit.  At level j, for i = 1..j, ``w = h[i] / (t[ell + i] - t[ell + i - j])``;
    ``w * (t[ell + i] - x)`` is added to the new value i and
    ``w * (x - t[ell + i - j])`` starts the new value i + 1.  The three levels
    are unrolled: each knot gap ``t[ell + i] - x`` and ``x - t[ell + o]`` is
    formed once per point, and the six divisors come from a per-interval
    table (level 1 divides 1 by its divisor, so the table holds that
    reciprocal).  A point's knot interval ``ell`` is 3 plus the number of
    interior breakpoints at or below it, so the right end belongs to the last
    interval; its 4 nonzero values go to columns ``ell - 3 .. ell`` of its
    block.  Clamped knots with distinct breakpoints keep every divisor
    positive.
    """
    n, p = x.shape
    m = t.size - 4
    first = np.zeros(x.shape, dtype=np.intp)  # ell - 3
    for knot in t[4:m]:
        first += x >= knot
    ell = np.arange(3, m)
    knots = t[ell + np.array([[1], [2], [3], [0], [-1], [-2]])]
    # t[ell + i] - t[ell + i - j] for (j, i) = (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)
    div = knots[[0, 0, 1, 0, 1, 2]] - knots[[3, 4, 3, 5, 4, 3]]
    div[0] = 1.0 / div[0]
    # every gathered array is a fresh copy, so the recursion reuses them in place
    r1, r2, r3, l0, l1, l2, w, d21, d22, d31, d32, d33 = (np.take(row, first) for row in np.vstack([knots, div]))
    for r in (r1, r2, r3):  # t[ell + 1] - x, t[ell + 2] - x, t[ell + 3] - x
        np.subtract(r, x, out=r)
    for left in (l0, l1, l2):  # x - t[ell], x - t[ell - 1], x - t[ell - 2]
        np.subtract(x, left, out=left)
    # level 1
    a1 = w * l0
    a0 = np.multiply(w, r1, out=w)
    # level 2
    w = np.divide(a0, d21, out=d21)
    b0 = np.multiply(w, r1, out=a0)
    b1 = np.multiply(w, l1, out=w)
    w = np.divide(a1, d22, out=d22)
    b1 += np.multiply(w, r2, out=a1)
    b2 = np.multiply(w, l0, out=w)
    # level 3; a1 is free scratch from here
    w = np.divide(b0, d31, out=d31)
    c0 = np.multiply(w, r1, out=b0)
    c1 = np.multiply(w, l2, out=w)
    w = np.divide(b1, d32, out=d32)
    c1 += np.multiply(w, r2, out=a1)
    c2 = np.multiply(w, l1, out=w)
    w = np.divide(b2, d33, out=d33)
    c2 += np.multiply(w, r3, out=a1)
    c3 = np.multiply(w, l0, out=w)
    out = np.zeros((n, p * m))
    flat = out.reshape(-1)
    at = np.arange(0, n * p * m, m) + first.reshape(-1)
    for c in (c0, c1, c2, c3):
        flat[at] = c.reshape(-1)
        at += 1
    return out


def eval_basis(d: Dictionary, r: int, x):
    """Evaluate the r-th basis function (1-based index) at `x`.

    Returns a float for scalar `x`, else an array of `x`'s shape.
    """
    if int(r) != r or not (1 <= r <= d.size):
        raise UsageError(f"basis index must be in 1..{d.size}, got {r!r}")
    x = np.asarray(x, dtype=np.float64)
    vals = basis_matrix(d, x.reshape(-1))[:, int(r) - 1].reshape(x.shape)
    return float(vals) if x.ndim == 0 else vals


def design_matrix(d: Dictionary, columns, intercept: bool = True, n_rows: int | None = None) -> np.ndarray:
    """Stack per-column basis expansions into one design matrix.

    Parameters
    ----------
    d : Dictionary
    columns : sequence of 1-d arrays
        Input variables, one block of ``d.size`` features per column, in the
        order given.
    intercept : bool
        Prepend a column of ones.
    n_rows : int, optional
        Row count, required only when `columns` is empty (an intercept-only
        design has no column to infer it from).

    Returns
    -------
    ndarray of shape ``(n, intercept + len(columns) * d.size)``
    """
    columns = [np.asarray(c, dtype=np.float64).ravel() for c in columns]
    if columns:
        n = columns[0].shape[0]
        for c in columns:
            if c.shape[0] != n:
                raise UsageError("all input columns must have the same length")
    elif n_rows is not None:
        n = int(n_rows)
        if n < 1:
            raise UsageError(f"n_rows must be positive, got {n_rows!r}")
    else:
        raise UsageError("empty column list needs n_rows (or an intercept alone has no height)")
    if not columns and not intercept:
        raise UsageError("design with no columns and no intercept is empty")
    parts = [np.ones((n, 1))] if intercept else []
    if columns:
        parts.append(basis_matrix(d, np.column_stack(columns)))
    return np.hstack(parts) if len(parts) > 1 else parts[0]


def moment_vector(d: Dictionary) -> np.ndarray:
    """Exact ``E[psi_r(U)]`` for ``U ~ Uniform(domain)``."""
    if d.family == PIECEWISE_CONSTANT:
        return np.full(d.size, 1.0 / d.size)
    if d.family == TRIGONOMETRIC:
        return np.zeros(d.size)
    nodes, weights = _spline_quad_rule(d)
    return weights @ basis_matrix(d, nodes)


def moment_matrix(d: Dictionary) -> np.ndarray:
    """Exact ``E[psi_r(U) psi_s(U)]`` for ``U ~ Uniform(domain)``."""
    if d.family == PIECEWISE_CONSTANT:
        return np.diag(np.full(d.size, 1.0 / d.size))
    if d.family == TRIGONOMETRIC:
        return 0.5 * np.eye(d.size)
    nodes, weights = _spline_quad_rule(d)
    bm = basis_matrix(d, nodes)
    return bm.T @ (weights[:, None] * bm)


def _spline_quad_rule(d: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights exact for piecewise degree-6 integrands.

    The rule is built per inter-knot interval (4 points each), normalized by
    the domain width so the weights integrate against the uniform density.
    """
    a, b = d.domain
    breaks = np.linspace(a, b, d.size - 2)
    gl_x, gl_w = np.polynomial.legendre.leggauss(4)
    nodes, weights = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * gl_x)
        weights.append(half * gl_w / (b - a))
    return np.concatenate(nodes), np.concatenate(weights)
