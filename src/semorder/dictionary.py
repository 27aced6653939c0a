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

from .errors import UsageError, as_number

PIECEWISE_CONSTANT = "piecewise-constant"
CUBIC_B_SPLINE = "cubic-b-spline"
TRIGONOMETRIC = "trigonometric"
FAMILIES = (PIECEWISE_CONSTANT, CUBIC_B_SPLINE, TRIGONOMETRIC)

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
        if int(self.size) != self.size or self.size < 1:
            raise UsageError(f"size must be a positive integer, got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))
        a, b = float(self.domain[0]), float(self.domain[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b and math.isfinite(b - a)):
            raise UsageError(f"domain must be a finite interval with a < b, got {self.domain!r}")
        object.__setattr__(self, "domain", (a, b))
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
    def from_config(cls, cfg: dict) -> "Dictionary":
        try:
            family = cfg["family"]
            size = cfg["size"]
            domain = cfg["domain"]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"dictionary config needs family/size/domain, got {cfg!r}") from exc
        if not isinstance(domain, (list, tuple)) or len(domain) != 2:
            raise UsageError(f"dictionary domain must be a [a, b] pair, got {domain!r}")
        return cls(
            family=str(family),
            size=as_number(size, "dictionary size", int),
            domain=tuple(as_number(v, "dictionary domain") for v in domain),
        )


def basis_matrix(d: Dictionary, x) -> np.ndarray:
    """Evaluate all basis functions at points `x`.

    Returns an array of shape ``(len(x), d.size)``; inputs are clamped to the
    domain first.
    """
    x = np.atleast_1d(d.clamp(x))
    a, b = d.domain
    n_pts, size = x.shape[0], d.size
    if d.family == PIECEWISE_CONSTANT:
        h = (b - a) / size
        idx = np.clip(np.floor((x - a) / h).astype(np.int64), 0, size - 1)
        out = np.zeros((n_pts, size))
        out[np.arange(n_pts), idx] = 1.0
        return out
    if d.family == CUBIC_B_SPLINE:
        return _cubic_bspline(x, d.knots())
    # trigonometric
    t = (x - a) / (b - a)
    r = np.arange(1, size + 1)
    return np.cos(np.pi * np.outer(t, r))


def _cubic_bspline(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """All ``len(t) - 4`` cubic B-splines on knots `t` at points `x` in ``[t[3], t[-4]]``.

    De Boor's recursion, vectorized over points, in FITPACK's operation order
    (``fpbspl``), so the values match the reference implementation bit for
    bit.  Each point has 4 nonzero values, in columns ``ell - 3 .. ell`` of
    its knot interval ``ell``; the right end belongs to the last interval.
    Clamped knots with distinct breakpoints keep every divisor positive.
    """
    m = t.size - 4
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, 3, m - 1)
    h = [np.ones_like(x)]
    for j in range(1, 4):
        hh, h = h, [np.zeros_like(x)]
        for i in range(1, j + 1):
            xb, xa = t[ell + i], t[ell + i - j]
            w = hh[i - 1] / (xb - xa)
            h[i - 1] = h[i - 1] + w * (xb - x)
            h.append(w * (x - xa))
    out = np.zeros((x.shape[0], m))
    np.put_along_axis(out, ell[:, None] + np.arange(-3, 1), np.stack(h, axis=1), axis=1)
    return out


def eval_basis(d: Dictionary, r: int, x):
    """Evaluate the r-th basis function (1-based index) at `x`.

    Returns a scalar for scalar `x`, else an array matching `x`.
    """
    if int(r) != r or not (1 <= r <= d.size):
        raise UsageError(f"basis index must be in 1..{d.size}, got {r!r}")
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    vals = basis_matrix(d, x)[:, int(r) - 1]
    return float(vals[0]) if scalar else vals


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
    parts = ([np.ones((n, 1))] if intercept else []) + [basis_matrix(d, c) for c in columns]
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
