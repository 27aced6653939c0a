"""Least-squares regression onto dictionary spans, with optional l1 budgets.

Two estimators over the same additive design:

* :func:`fit_span` solves unpenalized least squares (minimum-norm under rank
  deficiency);
* :func:`fit_l1` minimizes the same objective subject to an l1 budget on the
  non-intercept coefficients, exactly, by the lasso homotopy, and certifies
  the result with an explicit KKT residual.

:class:`ConditionalFits` fits one column of a data matrix on a set of the
others by the rules of a :class:`ClassSpec`; every class fit in the package
goes through it.  It also owns the sigma table, with its variance floor and
flags, and the one order search over it that order estimation and the
identifiability gap call.

:func:`misspec_experiment` measures convergence of the fitted coefficients to
the population projection when the true regression function lies outside the
class.  That projection is the class fit on a large oracle sample, from the
same engine, so the experiment has no solver of its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import empproc
from ._linalg import RANK_REL_TOL, Factor, factorize, least_squares, moment_solve, row_compress, whitener
from ._rng import derived_rng
from .dictionary import TRIGONOMETRIC, Dictionary, basis_matrix
from .errors import REQUIRED, CapacityError, DegeneracyError, UsageError, as_count, as_number, as_sizes, read_keys

SPAN = "span"
L1 = "l1"
CLASS_KEYS = {"dictionary": REQUIRED, "kind": SPAN, "budget": None, "intercept": True}

# data points (rows times columns) that ConditionalFits evaluates and folds
# into its QR at a time, which bounds the working memory of the fold whatever
# the number of rows; a chunk has max(1, CHUNK_POINTS // p) rows.  On a 2-vCPU
# VM the spline basis (N = 6) costs 41 to 44 ns per point in chunks of this
# size, against 48 to 50 ns in chunks of 4096 rows at p = 9 and p = 12
CHUNK_POINTS = 16384
# the largest p the one subset DP (ConditionalFits.best_order) takes
EXACT_GUARD = 18
# bytes of the designs that one stacked factorization of the one fit path
# takes (ConditionalFits._fits): a layer of C(p, k) designs is gathered and
# factored in stacks of at most this size, never whole
STACK_BYTES = 1 << 18

__all__ = [
    "ClassSpec",
    "FitResult",
    "MisspecTruth",
    "MisspecReport",
    "fit_span",
    "fit_l1",
    "kkt_residual",
    "fit_over_subsets",
    "misspec_experiment",
    "SPAN",
    "L1",
]


@dataclass(frozen=True)
class ClassSpec:
    """A regression class: dictionary expansion plus fitting rule.

    ``kind`` is ``"span"`` (plain least squares over the additive span) or
    ``"l1"`` (same span, coefficients constrained to an l1 budget).  For l1
    classes ``budget`` is the per-block budget; the total budget scales with
    the number of input columns.  ``intercept`` adds an unpenalized constant.
    """

    dictionary: Dictionary
    kind: str = SPAN
    budget: float | None = None
    intercept: bool = True

    def __post_init__(self):
        if self.kind not in (SPAN, L1):
            raise UsageError(f"class kind must be 'span' or 'l1', got {self.kind!r}")
        if self.kind == L1:
            budget = as_number(self.budget, "l1 class budget")
            if not budget > 0:
                raise UsageError(f"l1 class needs a positive budget, got {budget!r}")
            object.__setattr__(self, "budget", budget)
        elif self.budget is not None:
            raise UsageError("span class takes no budget")
        if not isinstance(self.intercept, bool):
            raise UsageError(f"class entry 'intercept' must be true or false, got {self.intercept!r}")

    def total_budget(self, n_blocks: int) -> float:
        if self.kind != L1:
            raise UsageError("total_budget is only defined for l1 classes")
        return self.budget * n_blocks

    def to_config(self) -> dict:
        cfg = {"dictionary": self.dictionary.to_config(), "kind": self.kind, "intercept": self.intercept}
        if self.kind == L1:
            cfg["budget"] = self.budget
        return cfg

    @classmethod
    def from_config(cls, cfg: dict, path: str = "class") -> "ClassSpec":
        """The class of config object `cfg`; :func:`semorder.errors.read_keys` names `path` on a key fault."""
        c = read_keys(cfg, path, CLASS_KEYS)
        return cls(Dictionary.from_config(c["dictionary"], f"{path}.dictionary"), c["kind"], c["budget"], c["intercept"])


@dataclass
class FitResult:
    """Outcome of one least-squares fit on ``n_obs`` observations.

    Span fits set ``rank`` and ``degenerate`` (a rank below the class span's
    dimension); l1 fits set ``converged`` and ``kkt_residual``.
    """

    coefficients: np.ndarray
    residual_variance: float
    degenerate: bool = False
    converged: bool = True
    kkt_residual: float | None = None
    n_obs: int = 0
    rank: int | None = None


def fit_span(x: np.ndarray, y: np.ndarray, factor: Factor | None = None) -> FitResult:
    """Ordinary least squares; minimum-norm coefficients if rank-deficient.

    Solved by :func:`semorder._linalg.least_squares`: a certified Cholesky
    solve when `x` is well conditioned, else LAPACK's ``gelsd``.  `factor`,
    :func:`semorder._linalg.factorize` of the same `x`, lets several targets
    share one factorization; the fit is the same without it.  The residual
    variance is the mean squared residual ``y - x beta`` (no
    degrees-of-freedom correction).  ``rank`` is the numerical rank of `x`,
    the number of singular values above ``RANK_REL_TOL`` times the largest;
    ``degenerate`` marks a rank below the column count.  :class:`UsageError`
    for a non-finite ``y'y``, ``trace(x'x)`` (checked by :func:`factorize`)
    or residual variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise UsageError(f"incompatible shapes {x.shape} and {y.shape}")
    if x.shape[0] < 1:
        raise UsageError("need at least one observation")
    _check_squares(response=y)
    beta, rank = least_squares(x, y, factor)
    resid = y - np.dot(x, beta)
    rv = float(np.dot(resid, resid)) / x.shape[0]
    if not math.isfinite(rv):
        raise UsageError(f"design and response must be finite, got residual variance {rv}")
    return FitResult(
        coefficients=beta,
        residual_variance=rv,
        degenerate=rank < x.shape[1],
        n_obs=x.shape[0],
        rank=rank,
    )


def kkt_residual(x: np.ndarray, y: np.ndarray, beta: np.ndarray, budget: float, intercept: bool = False) -> float:
    """Stationarity residual for the l1-constrained least-squares problem.

    For an interior point the residual is the sup-norm of the gradient (the
    intercept coordinate included either way).  On the boundary it measures
    how far the negative gradient is from a common multiplier ``lam =
    max_j |grad_j|`` aligned with the sign pattern on the support, ``|beta_j|
    > 1e-10 budget``.  Interior means an empty support or an l1 norm below
    ``budget (1 - 1e-9)``; at budget 0 only the intercept counts.  The
    gradient is taken on the columns of the fits' rank rule: a column whose
    norm is at most ``RANK_REL_TOL`` times the largest column norm of `x` is
    zero to that rule, and its entry counts as 0.  A true minimizer has
    residual 0; small residuals certify near-optimality.  :class:`UsageError`
    unless `x` has finite squares and `y`, `beta` and the gradient are finite
    (finite entries whose products overflow give an infinite gradient).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    beta = np.asarray(beta, dtype=np.float64).ravel()
    _check_squares(design=x)
    _check_finite(response=y, coefficients=beta)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = 2.0 * (x.T @ (x @ beta - y)) / x.shape[0]
    if not np.isfinite(grad).all():
        raise UsageError("design, response and coefficients must give a finite KKT gradient")
    norms = np.linalg.norm(x, axis=0)
    grad[norms <= RANK_REL_TOL * norms.max(initial=0.0)] = 0.0
    g_int = abs(float(grad[0])) if intercept and grad.shape[0] else 0.0
    g_pen, b_pen = (grad[1:], beta[1:]) if intercept else (grad, beta)
    if g_pen.shape[0] == 0:
        return g_int
    lam = float(np.max(np.abs(g_pen)))
    support = np.abs(b_pen) > 1e-10 * budget
    if not np.any(support):  # at budget 0 the origin is the only feasible point
        return g_int if budget == 0 else max(g_int, lam)
    if float(np.abs(b_pen).sum()) < budget * (1.0 - 1e-9):
        return max(g_int, lam)
    align = float(np.max(np.abs(-g_pen[support] * np.sign(b_pen[support]) - lam)))
    return max(g_int, align)


def _check_finite(**arrays: np.ndarray) -> None:
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise UsageError(f"{name} must be finite")


def _check_squares(**arrays: np.ndarray) -> None:
    """:class:`UsageError` unless each array's sum of squares is finite, checked by ``np.vdot``, which never warns."""
    for name, a in arrays.items():
        if not math.isfinite(np.vdot(a, a)):
            raise UsageError(f"{name} must be finite with finite squares")


def fit_l1(
    x: np.ndarray,
    y: np.ndarray,
    budget: float,
    tol: float = 1e-8,
    max_iter: int = 50000,
    intercept: bool = False,
) -> FitResult:
    """Least squares of `y` (n,) on `x` (n, d) under ``sum_j |beta_j| <= budget`` (intercept exempt).

    `x` and `y` must be finite with finite squares and `budget`
    nonnegative, else :class:`UsageError`.  Solved exactly by the lasso
    homotopy of :func:`_lasso_path`.  With ``intercept=True`` column 0 of `x`
    is the unpenalized intercept, removed first: the other columns are
    replaced by their residuals on it, ``x_j - x_0 (x_0'x_j) / (x_0'x_0)``,
    and a zero column 0 gets coefficient 0.  The path's rank rule measures
    against the largest column norm of `x` itself, intercept included, as
    ``gelsd`` does, so a residual column of rounding noise stays out of the
    path.  ``converged`` requires the KKT residual of :func:`kkt_residual` to
    be at most `tol`; a path cut at `max_iter` steps never converges.  A fit
    that does not converge warns.  On collinear columns the coefficients
    may not be unique; the fitted values are.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise UsageError(f"incompatible shapes {x.shape} and {y.shape}")
    if x.shape[0] < 1:
        raise UsageError("need at least one observation")
    if not (budget >= 0):
        raise UsageError(f"budget must be nonnegative, got {budget!r}")
    _check_squares(design=x, response=y)
    n, d = x.shape
    if d == 0:
        return FitResult(np.zeros(0), float(y @ y) / n, kkt_residual=0.0, n_obs=n)
    pen = x
    if intercept:
        x0, rest = x[:, 0], x[:, 1:]
        pivot = float(x0 @ x0) or 1.0
        pen = rest - np.outer(x0, (x0 @ rest) / pivot)
    norm = float(np.linalg.norm(x, axis=0).max())
    v, steps, done = _lasso_path(pen, y, budget, max_iter, norm)
    beta = np.concatenate([[x0 @ (y - rest @ v) / pivot], v]) if intercept else v
    residual = kkt_residual(x, y, beta, budget, intercept)
    converged = done and residual <= tol
    if not converged:
        msg = f"l1 fit stopped after {steps} path steps with KKT residual {residual:.3e} > {tol:.1e}"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    resid = y - x @ beta
    return FitResult(
        coefficients=beta,
        residual_variance=float(resid @ resid) / n,
        converged=bool(converged),
        kkt_residual=float(residual),
        n_obs=n,
    )


def _lasso_path(
    x: np.ndarray, y: np.ndarray, budget: float, max_steps: int, norm: float
) -> tuple[np.ndarray, int, bool]:
    """Minimize ``v'a v - 2 b'v`` over ``||v||_1 <= budget`` by the lasso homotopy, ``a = x'x / n``, ``b = x'y / n``.

    The penalized minimizer is piecewise linear in its multiplier ``lam``
    (Osborne, Presnell & Turlach 2000; Efron et al. 2004).  From ``v = 0`` at
    ``lam = max|b|``, the correlations ``c = b - a v`` of the active set S stay
    at ``lam`` times their signs s while v moves along ``a_SS^-1 s`` and
    ``lam`` falls at unit rate, up to the nearest event: a column joins S, a
    coefficient reaches 0 and leaves, the budget binds, or ``lam`` reaches 0
    (least squares).  S is kept in joining order, and each direction comes
    from :func:`semorder._linalg.moment_solve` on S's columns of `x`, at the
    scale `norm`, the largest column norm of the caller's design.  A joining
    column that it finds in the span of S keeps its correlation at ``lam`` by
    itself: it stays out until a column leaves.  Returns ``(v, steps,
    finished)``.
    """
    n, dim = x.shape
    a, b = x.T @ x / n, x.T @ y / n
    v, sign, riding = np.zeros(dim), np.zeros(dim), np.zeros(dim, dtype=bool)
    lam = float(np.max(np.abs(b), initial=0.0))
    if budget == 0 or lam == 0:
        return v, 0, True
    c, active = b, [int(np.argmax(np.abs(b)))]
    sign[active[0]] = np.sign(b[active[0]])
    for step in range(1, max_steps + 1):
        d = moment_solve(x[:, active], sign[active], norm)
        if d is None:
            j = active.pop()
            sign[j], riding[j] = 0.0, True
            continue
        dv = np.zeros(dim)
        dv[active] = d
        w = a @ dv
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(w < 1.0, np.maximum(lam - c, 0.0) / (1.0 - w), np.inf)
            down = np.where(w > -1.0, np.maximum(lam + c, 0.0) / (1.0 + w), np.inf)
            leave = np.where(sign * dv < 0, -v / dv, np.inf)
        join = np.where(riding | (sign != 0), np.inf, np.minimum(up, down))
        slope = float(sign @ dv)
        to_budget = max(budget - float(np.abs(v).sum()), 0.0) / slope if slope > 0 else np.inf
        gaps = np.concatenate([[to_budget, lam], leave, join])
        event = int(np.argmin(gaps))
        v += gaps[event] * dv
        lam -= gaps[event]
        if event < 2:  # rescaled where rounding left v outside the ball
            used = float(np.abs(v).sum())
            return (v * (budget / used) if used > budget else v), step, True
        if event < 2 + dim:
            k = event - 2
            v[k] = sign[k] = 0.0
            active.remove(k)
            riding[:] = False
        else:
            j = event - 2 - dim
            sign[j] = 1.0 if up[j] <= down[j] else -1.0
            active.append(j)
        c = b - a @ v
    return v, max_steps, False


def _design_columns(class_spec: ClassSpec, reached: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """The basis columns that a class design keeps of one block: the package's one rule.

    `reached` marks the basis functions that are nonzero at some observation.
    Returns the indices kept when the block comes first in a design, the
    width of its later form (a prefix of those), and whether it kept every
    basis function.  A span class drops the all-zero columns (cells no
    observation reaches).  A partition-of-unity block (any family but the
    trigonometric) sums to the constants, so it also drops its last remaining
    column once the design's span has them: always with an intercept, after
    the first block without one.  The span is unchanged; with every cell
    reached the design has one column per dimension of the span, ``k(N-1)+1``
    for k such blocks, else ``intercept + kN``.  An l1 class keeps every block
    whole, since dropping a column would change the l1 ball.
    """
    if class_spec.kind == L1:
        return np.arange(reached.shape[0]), reached.shape[0], True
    cols = np.flatnonzero(reached)
    full = cols.size == reached.shape[0]
    if class_spec.dictionary.family == TRIGONOMETRIC:
        return cols, cols.size, full
    return (cols[:-1] if class_spec.intercept else cols), cols.size - 1, full


def _folded_width(class_spec: ClassSpec) -> int:
    """How many leading basis columns of each block some design of :func:`_design_columns` may keep.

    A span class with an intercept never keeps the last column of a
    partition-of-unity block: reached, it is the column that the block
    drops; unreached, it is all zero.  Every other class may keep them all.
    """
    size = class_spec.dictionary.size
    drops_last = class_spec.kind == SPAN and class_spec.intercept and class_spec.dictionary.family != TRIGONOMETRIC
    return size - int(drops_last)


class ConditionalFits:
    """Class regressions of the columns of one data matrix on sets of the others.

    The package's one conditional-fit engine, built once per data matrix; the
    order search, the population residual variances and
    :func:`fit_over_subsets` all read their fits from it.  It owns:

    * the data check: every column's mean square must be finite, else
      :class:`UsageError` naming the column;
    * the capacity rule ``|S| N + 1 <= n``, else :class:`CapacityError`;
    * one compression of the data, made on first use in one pass over its
      rows: ``A = [1 | B_1 ... B_p | X]``, each basis block folded without
      the columns that no design keeps (:func:`_folded_width`), then in its
      first-block form by :func:`_design_columns`, reduced to ``C``, the R
      factor of its QR scaled so that ``C'C / m = A'A / n``
      (:meth:`_compress`), and kept as ``C'``, C-contiguous, so that every
      column of ``C`` is contiguous;
    * the design ``[1 | B_k ...]`` with blocks in ascending column order, as
      columns of ``C`` (:meth:`_columns`), gathered as a copy of those rows
      of ``C'`` (:meth:`_gather`);
    * the one fit path, :meth:`_fits`: same-width designs gathered and
      factored in stacks of at most STACK_BYTES, the span/l1 dispatch and
      the empty-design convention.  Every fit thus runs on the m <= 1 + pN +
      p rows of ``C``; its residual variance and moment form equal those on
      the n data rows in exact arithmetic, and ``n_obs`` is n;
    * the sigma table: ``(residual variance, floored, degenerate)`` keyed by
      (variable, predecessor bitmask), each variance floored at
      ``max(1e-12 * mean square, tiny)`` of its column so that logs stay
      finite, its walk along an order (:meth:`along`) and its search
      (:meth:`best_order`).  Every entry is stored by :meth:`_fill` as
      :meth:`_fits` makes it: :meth:`sigma` fills one entry, greedy search
      one predictor set's row, and :meth:`fill` one popcount layer per call.
    """

    def __init__(self, data, class_spec: ClassSpec):
        values = np.asarray(getattr(data, "values", data), dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise UsageError(f"data must be a nonempty 2-d matrix, got shape {values.shape}")
        with np.errstate(over="ignore"):
            ms = np.mean(values * values, axis=0)
        bad = np.flatnonzero(~np.isfinite(ms))
        if bad.size:
            raise UsageError(f"column x{bad[0] + 1} has a non-finite mean square ({ms[bad[0]]})")
        self.values = values
        self.n, self.p = values.shape
        self.class_spec = class_spec
        self._floor = np.maximum(1e-12 * ms, np.finfo(np.float64).tiny).tolist()
        self._blocks: list[tuple[list[int], list[int], bool]] | None = None
        self._c: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._memo: dict[tuple[int, int], tuple[float, bool, bool]] = {}

    def predictor_mask(self, v: int, s) -> int:
        """Bitmask of the conditioning set `s` of target column `v`, after checking both.

        Every index of `s` must be a column and `s` may not repeat one; then
        :meth:`_check_entry` checks `v` against the mask.
        """
        mask = 0
        for k in s:
            k = int(k)
            if not (0 <= k < self.p):
                raise UsageError(f"conditioning index {k} out of range for {self.p} columns")
            if mask >> k & 1:
                raise UsageError(f"conditioning set {s!r} has repeated indices")
            mask |= 1 << k
        self._check_entry(int(v), mask)
        return mask

    def fit(self, v: int, mask: int) -> FitResult:
        """Fit column `v` on the columns whose bits are set in `mask` (not memoized), after :meth:`_check_entry`."""
        self._check_entry(v, mask)
        ((_, _, fit),) = self._fits([(mask, [v])])
        return fit

    def _check_entry(self, v: int, mask: int) -> None:
        """:class:`UsageError` unless `mask` names columns only and `v` is a column outside it."""
        if not 0 <= mask < 1 << self.p:
            raise UsageError(f"predictor mask {mask:#b} names a column beyond the {self.p} columns")
        if not 0 <= v < self.p:
            raise UsageError(f"target column {v} out of range for {self.p} columns")
        if mask >> v & 1:
            raise UsageError(f"target column {v} cannot be conditioned on itself")

    def _fits(self, rows):
        """Fit the `targets` of each ``(mask, targets)`` in `rows` on the design of `mask`; yields ``(v, mask, fit)``.

        The one place that picks a class fit's solver; `rows` is trusted.  The
        capacity rule is checked once per popcount, and same-width designs are
        gathered in stacks.  An l1 class with k >= 1 blocks takes one
        :func:`fit_l1` per target at ``total_budget(k)``.  A span design's
        stack is factored by one :func:`factorize` call, and each target is
        one :func:`fit_span`, bit for bit the fit on that design alone.  With
        neither blocks nor intercept the residual variance is the target's
        mean square.  A span fit is ``degenerate`` only when its rank is below
        the dimension of the class span: below the design's column count, or
        a block lost an all-zero column.  l1 fits are never flagged.
        """
        cs = self.class_spec
        for k in {mask.bit_count() for mask, _ in rows}:
            self._check_capacity(k)
        groups: dict[tuple[int, float | None], list[tuple[int, list[int], list[int], bool]]] = {}
        for mask, targets in rows:
            cols, lost = self._columns(mask)
            budget = cs.total_budget(mask.bit_count()) if cs.kind == L1 and mask else None
            groups.setdefault((len(cols), budget), []).append((mask, targets, cols, lost))
        for (d, budget), group in groups.items():
            if not d:
                for mask, targets, _, _ in group:
                    for v in targets:
                        y = self._targets[:, v]
                        yield v, mask, FitResult(np.zeros(0), float(np.mean(y * y)), n_obs=self.n, rank=0)
                continue
            step = max(STACK_BYTES // (8 * self._c.shape[0] * d), 1)
            for start in range(0, len(group), step):
                chunk = group[start : start + step]
                designs = self._gather(np.array([cols for _, _, cols, _ in chunk]))
                factors = factorize(designs) if budget is None else [None] * len(chunk)
                for (mask, targets, _, lost), x, factor in zip(chunk, designs, factors):
                    for v in targets:
                        if budget is None:
                            fit = fit_span(x, self._targets[:, v], factor)
                            fit.degenerate = fit.degenerate or lost
                        else:
                            fit = fit_l1(x, self._targets[:, v], budget, intercept=cs.intercept)
                        fit.n_obs = self.n
                        yield v, mask, fit

    def _check_capacity(self, k: int) -> None:
        """The capacity rule ``k N + 1 <= n`` for a predictor set of `k` columns, else :class:`CapacityError`."""
        need = k * self.class_spec.dictionary.size + 1
        if need > self.n:
            raise CapacityError(f"conditioning on {k} columns needs {need} rows, have {self.n}")

    def _design(self, mask: int) -> tuple[np.ndarray | None, bool]:
        """The class design of the columns in `mask`, gathered from ``C``, and whether a block lost a column.

        None when the design has no column (no block and no intercept).
        """
        cols, lost = self._columns(mask)
        return (self._gather(np.array(cols)) if cols else None), lost

    def _columns(self, mask: int) -> tuple[list[int], bool]:
        """The columns of ``C`` that make the class design of `mask`, and whether a block lost a column.

        ``[1 | B_k ...]``: the intercept if the class has one, then each block
        in ascending column order, the first in its first-block form and the
        others in their later form.
        """
        if self._blocks is None:
            self._compress()
        blocks = [self._blocks[k] for k in range(self.p) if mask >> k & 1]
        cols = list(range(int(self.class_spec.intercept)))
        for i, (first, later, _) in enumerate(blocks):
            cols += later if i else first
        return cols, not all(b[2] for b in blocks)

    def _gather(self, cols: np.ndarray) -> np.ndarray:
        """The ``(..., m, d)`` stack of designs whose ``C`` columns are the rows ``(..., d)`` of `cols`.

        Each design is the transpose of a C-contiguous copy of rows of ``C'``.
        """
        return self._c.T[cols].swapaxes(-1, -2)

    def _compress(self) -> None:
        """Reduce ``A = [1 | B_1 ... B_p | X]`` to the columns of ``C``.

        One pass over the data: each chunk of ``max(1, CHUNK_POINTS // p)``
        rows gets its basis from one :func:`basis_matrix` call, is written
        into one preallocated buffer and folded in by
        :func:`_linalg.row_compress`, so no n-row design is ever held.  Each
        block ``B_k`` holds only the columns that some design may keep
        (:func:`_folded_width`).  The columns that :func:`_design_columns`
        keeps, known once every row is seen, are then compressed once more to
        ``m`` rows, and scaled by ``sqrt(m / n)``: ``||C_y - C_S b||^2 / m =
        ||A_y - A_S b||^2 / n`` for every b.
        """
        cs, n, p = self.class_spec, self.n, self.p
        size, icpt, folded = cs.dictionary.size, int(cs.intercept), _folded_width(cs)
        reached = np.zeros((p, size), dtype=bool)
        rows = min(n, max(1, CHUNK_POINTS // p))
        buf = np.empty((rows, icpt + p * folded + p))
        buf[:, :icpt] = 1.0
        bases = buf[:, icpt : icpt + p * folded].reshape(rows, p, folded)

        # every chunk is the same buffer: row_compress reduces a block before it asks for the next
        def chunks():
            for start in range(0, n, rows):
                chunk = self.values[start : start + rows]
                m = chunk.shape[0]
                basis = basis_matrix(cs.dictionary, chunk).reshape(m, p, size)
                reached[:] |= basis.any(axis=0)
                bases[:m] = basis[:, :, :folded]
                buf[:m, icpt + p * folded :] = chunk
                yield buf[:m]

        r = row_compress(chunks())
        keep, spans = [np.arange(icpt)], []
        for k in range(p):
            cols, width, full = _design_columns(cs, reached[k])
            spans.append((sum(c.size for c in keep), cols.size, width, full))
            keep.append(icpt + k * folded + cols)
        keep.append(icpt + p * folded + np.arange(p))
        r = row_compress([r[:, np.concatenate(keep)]])
        # C is the transpose of one C-contiguous copy of C', so each column,
        # a target's included, is contiguous
        self._c = np.ascontiguousarray((r * math.sqrt(r.shape[0] / n)).T).T
        self._blocks = [(list(range(at, at + first)), list(range(at, at + later)), full) for at, first, later, full in spans]
        self._targets = self._c[:, self._c.shape[1] - p :]

    def sigma(self, v: int, mask: int) -> tuple[float, bool, bool]:
        """Memoized ``(floored residual variance, floored, degenerate)`` of :meth:`fit`.

        A missing entry passes :meth:`_check_entry`, then :meth:`_fill`; a bad
        request never enters the table, so it always reaches that check.
        """
        if (v, mask) not in self._memo:
            self._check_entry(v, mask)
            self._fill([(mask, [v])])
        return self._memo[(v, mask)]

    def _row(self, mask: int, targets) -> list[tuple[float, bool, bool]]:
        """:meth:`sigma` of each column of `targets` on the set `mask`, after one :meth:`_fill`."""
        self._fill([(mask, targets)])
        return [self._memo[(v, mask)] for v in targets]

    def _fill(self, rows) -> None:
        """Enter the entries of `rows` not yet in the table, each as :meth:`_fits` makes it, its residual variance floored."""
        missing = [(mask, [v for v in targets if (v, mask) not in self._memo]) for mask, targets in rows]
        for v, mask, fit in self._fits([(mask, targets) for mask, targets in missing if targets]):
            rv, floor = fit.residual_variance, self._floor[v]
            self._memo[(v, mask)] = (floor, True, fit.degenerate) if rv < floor else (rv, False, fit.degenerate)

    def along(self, pi) -> tuple[np.ndarray, tuple[bool, ...], tuple[bool, ...]]:
        """:meth:`sigma` at each position of the order `pi`, on the variables placed before it.

        Returns the variances and the per-position floored and degenerate flags.
        """
        rows, mask = [], 0
        for v in pi:
            rows.append(self.sigma(v, mask))
            mask |= 1 << v
        values, floored, degenerate = zip(*rows)
        return np.array(values), floored, degenerate

    def fill(self, before) -> list[list[tuple[int, list[int]]]]:
        """Put in the table every entry that an order allowed by `before` reaches, one popcount layer at a time.

        In an allowed order each v follows the set bits of ``before[v]``.
        Returns the layers: for k = 0 .. p-1, each placed set of k columns
        that some allowed order reaches, in ascending order, with the columns
        that may come next.  A set that no allowed order reaches costs no
        fit.  Each layer is one :meth:`_fill`.
        :class:`UsageError` when `before` has a cycle.
        """
        full = (1 << self.p) - 1
        layers, masks = [], [0]
        while masks != [full]:
            layer = [(mask, [v for v in range(self.p) if not (mask >> v & 1 or before[v] & ~mask)]) for mask in masks]
            masks = sorted({mask | 1 << v for mask, allowed in layer for v in allowed})
            if not masks:
                raise UsageError("the precedence constraints of the order search have a cycle")
            layers.append(layer)
            self._fill(layer)
        return layers

    def best_order(self, before) -> tuple[int, ...]:
        """The order of least ``sum log sigma`` in which each v follows the set bits of ``before[v]``.

        Subset DP (Silander & Myllymaki, UAI 2006) over the layers of
        :meth:`fill`, from the full set down: the best completion of a placed
        set is the least ``log sigma(v | set) + best(set + v)`` over its
        allowed v.  Ties go to the smallest v, so the order is the
        lexicographically smallest minimizer.  p at most EXACT_GUARD, else
        :class:`CapacityError`.
        """
        if self.p > EXACT_GUARD:
            raise CapacityError(f"exact search is limited to p <= {EXACT_GUARD}, got p={self.p}")
        full = (1 << self.p) - 1
        best = {full: (0.0, -1)}
        for layer in reversed(self.fill(before)):
            for mask, allowed in layer:
                best[mask] = min((math.log(self._memo[(v, mask)][0]) + best[mask | 1 << v][0], v) for v in allowed)
        pi, mask = [], 0
        while mask != full:
            pi.append(best[mask][1])
            mask |= 1 << pi[-1]
        return tuple(pi)


def fit_over_subsets(data, j: int, class_spec: ClassSpec, subsets) -> dict[tuple[int, ...], FitResult]:
    """Fit the class regression of column `j` on each subset of other columns.

    All fits come from one :class:`ConditionalFits` engine, so the data is
    compressed once.  Each fit equals, to rounding, the fit on the full
    n-row class design of the same columns in ascending order, with the
    columns of :func:`_design_columns`.  The coefficients of an l1 class on
    collinear blocks may not be unique; see :func:`fit_l1`.  Keys of the
    returned dict are sorted index tuples; the empty subset without an
    intercept gives the ``mean(y*y)`` fit.  Raises :class:`CapacityError` for
    a subset of k columns when ``k N + 1 > n``.
    """
    fits = ConditionalFits(data, class_spec)
    fits.predictor_mask(j, ())  # checks `j` even when `subsets` is empty
    masks = dict.fromkeys(fits.predictor_mask(j, s) for s in subsets)
    return {tuple(k for k in range(fits.p) if m >> k & 1): fits.fit(j, m) for m in masks}


@dataclass(frozen=True)
class MisspecTruth:
    """A true regression function: conditional mean plus Gaussian noise level."""

    mean: Callable[[np.ndarray], np.ndarray]
    noise_sd: float
    label: str = "truth"

    def __post_init__(self):
        noise_sd = as_number(self.noise_sd, "truth entry 'noise_sd'")
        if noise_sd < 0:
            raise UsageError(f"truth entry 'noise_sd' must be nonnegative, got {noise_sd!r}")
        object.__setattr__(self, "noise_sd", noise_sd)


@dataclass
class MisspecReport:
    """Results of a misspecified-regression convergence experiment."""

    truth_label: str
    class_config: dict
    oracle_n: int
    seed: int
    beta_star: np.ndarray
    population_residual_variance: float
    k0: float
    lambda_min: float
    n_features: int
    cells: list[dict] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    slope: float = float("nan")
    slope_stderr: float = float("nan")
    r_squared: float = float("nan")
    theoretical_exponent: float = -0.5

    def to_json(self) -> dict:
        return {
            "truth": self.truth_label,
            "class": self.class_config,
            "oracle_n": self.oracle_n,
            "seed": self.seed,
            "beta_star": [float(v) for v in self.beta_star],
            "population_residual_variance": self.population_residual_variance,
            "k0": self.k0,
            "lambda_min": self.lambda_min,
            "n_features": self.n_features,
            "cells": self.cells,
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "r_squared": self.r_squared,
            "theoretical_exponent": self.theoretical_exponent,
        }

    def csv_rows(self):
        header = ["n", "rep", "metric", "value"]
        rows = []
        for r in self.records:
            rows.append([r["n"], r["rep"], "coef_distance", r["coef_distance"]])
            rows.append([r["n"], r["rep"], "variance_gap", r["variance_gap"]])
        return header, rows


def misspec_experiment(
    truth: MisspecTruth,
    class_spec: ClassSpec,
    n_grid,
    reps: int,
    oracle_n: int = 200_000,
    seed: int = 0,
) -> MisspecReport:
    """Convergence of the class fit to the population projection.

    The design is uniform on the class dictionary's domain.  Every sample,
    ``[x, y]``, goes through one :class:`ConditionalFits`, and each cell's
    fit is that engine's fit of y on x.  A large oracle sample pins down the
    population quantities, and its target is the same computation: the
    projection coefficients b* and the population residual variance are the
    oracle engine's own fit of y on x (for an l1 class, the l1-constrained
    fit at the budget of one block).  The moment matrix ``Sigma = D'D / m``
    of the oracle's compressed design ``D`` of x, ``m`` rows, serves both
    the distance metric and the theoretical rate.  Cell ``(n, rep)`` uses
    the stream derived from ``(seed, n, rep)``; the oracle uses ``(seed,
    oracle_n, 0)``, so the cell with ``n == oracle_n``, ``rep == 0`` repeats
    the oracle fit exactly.  Each design keeps the columns of
    :func:`_design_columns`, so ``n_features`` is the span's dimension.
    `reps` and `oracle_n` must be positive integers (:class:`UsageError`).
    :class:`DegeneracyError` is raised when Sigma fails the positive definite
    rule of :func:`whitener`, naming ``Lambda_min``, before any fit, and when
    a cell's sample is below the engine's capacity rule, or its fit is
    degenerate or lacks a column that the oracle keeps.

    Per cell the report records the Sigma-weighted coefficient distance
    ``sqrt((b - b*)' Sigma (b - b*))`` and the gap between empirical and
    population residual variance; per sample size it records their mean and
    0.9 quantile plus the ratio of the mean distance to the plug-in rate from
    :func:`semorder.empproc.delta_n`.
    """
    n_grid = as_sizes(n_grid, "n_grid")
    reps = as_count(reps, "reps")
    oracle_n = as_count(oracle_n, "oracle_n")
    a, b = class_spec.dictionary.domain

    def sample_fits(n, rep):
        rng = derived_rng(seed, n, rep)
        x = rng.uniform(a, b, n)
        y = np.asarray(truth.mean(x), dtype=np.float64) + truth.noise_sd * rng.standard_normal(n)
        return ConditionalFits(np.column_stack([x, y]), class_spec)

    oracle = sample_fits(oracle_n, 0)
    psi, _ = oracle._design(0b1)
    m, d = psi.shape
    if oracle_n < 10 * d:
        raise UsageError(f"oracle_n={oracle_n} too small for {d} features (need >= {10 * d})")
    sigma_o = psi.T @ psi / m
    whitener(*np.linalg.eigh(sigma_o), name="oracle moment matrix Sigma_o")
    star = oracle.fit(1, 0b1)
    c_y = oracle._targets[:, 1]
    k0 = math.sqrt(float(c_y @ c_y) / m)
    lam_min = empproc.lambda_min(sigma_o)

    report = MisspecReport(
        truth_label=truth.label,
        class_config=class_spec.to_config(),
        oracle_n=oracle_n,
        seed=int(seed),
        beta_star=star.coefficients,
        population_residual_variance=star.residual_variance,
        k0=k0,
        lambda_min=lam_min,
        n_features=d,
    )
    mean_dists = []
    for n in n_grid:
        dists = np.empty(reps)
        vgaps = np.empty(reps)
        for rep in range(reps):
            undetermined = f"the n={n} sample of rep {rep} does not determine the {d} coefficients"
            try:
                fit = sample_fits(n, rep).fit(1, 0b1)
            except CapacityError as exc:
                raise DegeneracyError(f"{undetermined}: {exc}") from exc
            if fit.degenerate or fit.coefficients.shape != star.coefficients.shape:
                raise DegeneracyError(undetermined)
            db = fit.coefficients - star.coefficients
            dists[rep] = float(np.sqrt(max(db @ (sigma_o @ db), 0.0)))
            vgaps[rep] = abs(fit.residual_variance - star.residual_variance)
            report.records.append(
                {"n": n, "rep": rep, "coef_distance": dists[rep], "variance_gap": vgaps[rep]}
            )
        dn = empproc.delta_n(k_x=class_spec.dictionary.sup_bound, k_0=k0, p=d, n=n, lam_min=lam_min)
        mean_dists.append(float(dists.mean()))
        report.cells.append(
            {
                "n": n,
                "reps": reps,
                "mean_dist": float(dists.mean()),
                "q90": float(np.quantile(dists, 0.9)),
                "mean_variance_gap": float(vgaps.mean()),
                "q90_variance_gap": float(np.quantile(vgaps, 0.9)),
                "delta_n": dn,
                "ratio_to_delta_n": float(dists.mean() / dn) if dn > 0 else float("inf"),
            }
        )
    if len(n_grid) >= 2:
        report.slope, report.slope_stderr, report.r_squared = empproc.loglog_slope(n_grid, mean_dists)
    return report
