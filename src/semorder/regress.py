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
from typing import Callable, NamedTuple

import numpy as np

from . import empproc
from ._linalg import RANK_REL_TOL, Factor, Factors, extend, least_squares, moment_solve, row_compress, whitener
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
# bytes of the designs of one stacked step of the sigma table's walk
# (ConditionalFits._visit): the sets whose factors one step grows, and whose
# designs it gathers, take at most this size, so no layer is ever held whole
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
    a :class:`semorder._linalg.Factor` of the same `x` (by
    :func:`semorder._linalg.factorize`, or grown by
    :class:`ConditionalFits`), lets several targets share one factorization;
    without it the fit is :func:`factorize`'s, the same to rounding.  The residual
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
    m = x.shape[0]
    if m < 1:
        raise UsageError("need at least one observation")
    if not math.isfinite(np.vdot(y, y)):
        raise UsageError("response must be finite with finite squares")
    beta, rank = least_squares(x, y, factor)
    resid = y - np.dot(x, beta)
    rv = float(np.dot(resid, resid)) / m
    if not math.isfinite(rv):
        raise UsageError(f"design and response must be finite, got residual variance {rv}")
    return FitResult(beta, rv, rank < x.shape[1], n_obs=m, rank=rank)


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


class _Nodes(NamedTuple):
    """A stack of placed sets whose designs share one width, as :class:`ConditionalFits` walks them.

    ``masks`` are the sets, ``tops`` their largest members (-1 for the empty
    set), ``cols`` the ``(k, d)`` columns of ``C`` of their designs and
    ``lost`` whether a block of a design lost a column.  ``factors`` are the
    certified factors of the designs' Gram matrices, or None for designs
    whose fits go to ``gelsd`` (or to :func:`fit_l1`).
    """

    masks: np.ndarray
    tops: np.ndarray
    cols: np.ndarray
    lost: np.ndarray
    factors: Factors | None

    def take(self, rows) -> "_Nodes":
        """The sets at `rows` of the stack."""
        factors = None if self.factors is None else self.factors.take(rows)
        return _Nodes(self.masks[rows], self.tops[rows], self.cols[rows], self.lost[rows], factors)


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
      column of ``C`` is contiguous; the Gram matrix ``G`` of its design
      columns is formed once, with it;
    * the design ``[1 | B_k ...]`` with blocks in ascending column order, as
      columns of ``C`` (:meth:`_columns`), gathered as a copy of those rows
      of ``C'`` (:meth:`_gather`);
    * the factors, grown along the subset tree: the design of a set S is the
      design of its parent ``S - {max S}`` and block ``max S`` more, so S's
      certified Cholesky factor is its parent's grown by one block row
      (:func:`semorder._linalg.extend`, on blocks of ``G``).  Every request
      grows its factor along that one chain from the empty set, so an entry
      is the same to the bit whichever request makes it: the walk of
      :meth:`fill` grows stacks of sets of one width, at most STACK_BYTES of
      designs each (:meth:`_visit`), and a single set grows alone
      (:meth:`_chain`).  A set that fails the certificate has no certified
      descendant, and that subtree's fits go to ``gelsd``;
    * the one fit path, :meth:`_fits`: the span/l1 dispatch, one
      :func:`fit_span` or :func:`fit_l1` per entry on the set's gathered
      design, and the empty-design convention.  Every fit thus runs on the m
      <= 1 + pN + p rows of ``C``; its residual variance and moment form
      equal those on the n data rows in exact arithmetic, and ``n_obs`` is n;
    * the sigma table for p <= EXACT_GUARD: ``(p, 2^p)`` arrays of the
      residual variance and the floored and degenerate flags, indexed by
      (variable, predecessor bitmask), each variance floored at ``max(1e-12
      * mean square, tiny)`` of its column so that logs stay finite.  A
      variance of 0 marks an entry not yet filled, since every floor is
      positive.  :meth:`sigma` fills one entry, greedy search one predictor
      set's row and :meth:`fill` the entries that an order search reaches;
      :meth:`along` walks the table along an order and :meth:`best_order`
      searches it.  Above EXACT_GUARD there is no table, and each request
      is fitted anew.
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
        self._floor = np.maximum(1e-12 * ms, np.finfo(np.float64).tiny)
        self._c: np.ndarray | None = None
        self._gram: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._path: list[_Nodes] = []
        # np.zeros maps its pages on first touch, so a search that reaches
        # few sets holds little of the table
        shape = (self.p, 1 << self.p) if self.p <= EXACT_GUARD else (0, 0)
        self._var = np.zeros(shape)
        self._floored = np.zeros(shape, dtype=bool)
        self._degenerate = np.zeros(shape, dtype=bool)

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
        """Fit column `v` on the columns whose bits are set in `mask` (not stored), after :meth:`_check_entry`."""
        self._check_entry(v, mask)
        self._check_capacity(mask.bit_count())
        (fit,) = self._fits(self._chain(mask), np.zeros(1, dtype=np.intp), np.array([v]))
        return fit

    def _check_entry(self, v: int, mask: int) -> None:
        """:class:`UsageError` unless `mask` names columns only and `v` is a column outside it."""
        if not 0 <= mask < 1 << self.p:
            raise UsageError(f"predictor mask {mask:#b} names a column beyond the {self.p} columns")
        if not 0 <= v < self.p:
            raise UsageError(f"target column {v} out of range for {self.p} columns")
        if mask >> v & 1:
            raise UsageError(f"target column {v} cannot be conditioned on itself")

    def _fits(self, nodes: _Nodes, rows: np.ndarray, targets: np.ndarray) -> list[FitResult]:
        """The fit of each column ``targets[i]`` on the design of set ``nodes.masks[rows[i]]``, in that order.

        The one place that picks a class fit's solver; the entries are
        trusted, `rows` ascending.  Each design is gathered once.  An l1
        class with k >= 1 blocks takes one :func:`fit_l1` per target at
        ``total_budget(k)``.  Any other design takes one :func:`fit_span` per
        target on the set's certified factor, or ``gelsd`` without one.  With
        neither blocks nor intercept the residual variance is the target's
        mean square.  A span fit is ``degenerate`` only when its rank is
        below the dimension of the class span: below the design's column
        count, or a block lost an all-zero column.  l1 fits are never
        flagged.
        """
        cs, n, fits = self.class_spec, self.n, []
        l1, empty = cs.kind == L1, not nodes.cols.shape[1]
        starts = [0] + (np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()
        have = rows[starts]
        designs = self._gather(nodes.cols[have])
        masks, lost = nodes.masks.tolist(), nodes.lost.tolist()
        invs = nodes.factors.inv if nodes.factors is not None else None
        targets, ys = targets.tolist(), list(self._targets.T)
        for x, j, lo, hi in zip(designs, have.tolist(), starts, starts[1:] + [len(targets)]):
            mask = masks[j]
            factor = Factor(None if invs is None else invs[j])
            for v in targets[lo:hi]:
                y = ys[v]
                if empty:
                    fit = FitResult(np.zeros(0), float(np.mean(y * y)), rank=0)
                elif l1 and mask:
                    fit = fit_l1(x, y, cs.total_budget(mask.bit_count()), intercept=cs.intercept)
                else:
                    fit = fit_span(x, y, factor)
                    fit.degenerate = fit.degenerate or lost[j]
                fit.n_obs = n
                fits.append(fit)
        return fits

    def _entries(self, targets, fits: list[FitResult]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table entries of `fits` of columns `targets`: residual variances floored, floored and degenerate flags."""
        rv = np.array([fit.residual_variance for fit in fits])
        floor = self._floor[targets]
        return np.maximum(rv, floor), rv < floor, np.array([fit.degenerate for fit in fits], dtype=bool)

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
        if self._c is None:
            self._compress()
        starts, widths, full = self._starts.tolist(), self._widths.tolist(), self._full.tolist()
        ks = [k for k in range(self.p) if mask >> k & 1]
        cols = list(range(int(self.class_spec.intercept)))
        for i, k in enumerate(ks):
            cols += range(starts[k], starts[k] + widths[1 if i else 0][k])
        return cols, not all(full[k] for k in ks)

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
        ||A_y - A_S b||^2 / n`` for every b.  ``G`` is ``C'C`` on the design
        columns, every column but the p targets.
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
        # block k's columns of C start at starts[k]: widths[0, k] in its
        # first-block form, widths[1, k] (a prefix) in its later form
        starts, first, later, full = zip(*spans)
        self._starts, self._widths, self._full = np.array(starts), np.maximum([first, later], 0), np.array(full)
        self._targets = self._c[:, self._c.shape[1] - p :]
        design = self._c[:, : self._c.shape[1] - p]
        self._gram = design.T @ design

    def sigma(self, v: int, mask: int) -> tuple[float, bool, bool]:
        """``(floored residual variance, floored, degenerate)`` of :meth:`fit`, from the table when it holds it.

        Every request passes :meth:`_check_entry` first, so a bad one never
        reads or enters the table.
        """
        self._check_entry(v, mask)
        return self._row(mask, [v])[0]

    def _row(self, mask: int, targets) -> list[tuple[float, bool, bool]]:
        """:meth:`sigma` of each column of `targets` on the set `mask`; the missing ones are fitted on one :meth:`_chain`."""
        table = self._var.size > 0
        missing = np.array([v for v in targets if not (table and self._var[v, mask])], dtype=np.intp)
        made = {}
        if missing.size:
            self._check_capacity(mask.bit_count())
            entries = self._entries(missing, self._fits(self._chain(mask), np.zeros_like(missing), missing))
            if table:
                self._var[missing, mask], self._floored[missing, mask], self._degenerate[missing, mask] = entries
            made = dict(zip(missing.tolist(), zip(*(e.tolist() for e in entries))))
        return [made.get(v) or self._stored(v, mask) for v in targets]

    def _stored(self, v: int, mask: int) -> tuple[float, bool, bool]:
        return float(self._var[v, mask]), bool(self._floored[v, mask]), bool(self._degenerate[v, mask])

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

    def _root(self) -> _Nodes:
        """The stack of the empty set alone: its design is the intercept, or no column."""
        if self._c is None:
            self._compress()
        cols = np.arange(int(self.class_spec.intercept))[None]
        factors, ok = self._grown(Factors.empty(), cols[:, :0], cols)
        masks = np.zeros(1, dtype=np.int64 if self.p < 63 else object)
        return _Nodes(masks, np.full(1, -1), cols, np.zeros(1, dtype=bool), factors if ok[0] else None)

    def _grow(self, nodes: _Nodes, rows: np.ndarray, vs: np.ndarray) -> list[_Nodes]:
        """The sets ``nodes.masks[rows] | 1 << vs``, each design its parent's and block vs's columns.

        Block v comes in its first-block form on the empty set, else in its
        later form; the caller passes blocks of one width.  Without a
        certified parent factor (or for an l1 class) the children have none;
        otherwise each factor is its parent's grown by one block row.  Returns
        the children in one stack, or in two when some failed the
        certificate: those without factors, then the certified ones.
        """
        width = self._widths[0 if nodes.tops[0] < 0 else 1, vs[0]]
        block = self._starts[vs, None] + np.arange(width)
        parent, masks = nodes.cols[rows], nodes.masks[rows]
        masks = masks | np.left_shift(np.ones_like(masks), vs)
        child = (masks, vs, np.concatenate([parent, block], axis=1), nodes.lost[rows] | ~self._full[vs])
        if nodes.factors is None or self.class_spec.kind == L1:
            return [_Nodes(*child, None)]
        factors, ok = self._grown(nodes.factors.take(rows), parent, block)
        if ok.all():
            return [_Nodes(*child, factors)]
        dead, live = np.flatnonzero(~ok), np.flatnonzero(ok)
        return [_Nodes(*child, None).take(dead)] + ([_Nodes(*child, factors).take(live)] if live.size else [])

    def _grown(self, factors: Factors, parent: np.ndarray, block: np.ndarray) -> tuple[Factors, np.ndarray]:
        """`factors` of the designs of ``C`` columns `parent` grown by columns `block`, each ``(k, .)``, and which are certified."""
        g = self._gram
        return extend(factors, g[parent[:, :, None], block[:, None, :]], g[block[:, :, None], block[:, None, :]])

    def _chain(self, mask: int) -> _Nodes:
        """The stack of the set `mask` alone, its factor grown from the empty set one member at a time, as the walk grows it.

        The stacks along the last chain are kept, so a chain that shares a
        prefix with it grows only past that prefix: greedy search's next set
        shares every member below the one it adds.
        """
        path = self._path[:1] or [self._root()]
        for v in range(self.p):
            if mask >> v & 1:
                depth = len(path)
                if depth < len(self._path) and self._path[depth].masks[0] == path[-1].masks[0] | 1 << v:
                    path.append(self._path[depth])
                else:
                    *_, node = self._grow(path[-1], np.zeros(1, dtype=np.intp), np.array([v]))
                    path.append(node)
        self._path = path
        return path[-1]

    def fill(self, *befores) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """Put in the table every entry that an order allowed by one of `befores` reaches, in one walk.

        In an order allowed by ``before``, each v follows the set bits of
        ``before[v]``.  Returns, per ``before``, its layers: for k = 0 ..
        p-1, the ascending array of the placed sets of k columns that some
        allowed order reaches, with the ``(sets, p)`` array of the columns
        that may come next.  A set that no allowed order reaches costs no
        fit, though the walk grows its factor when a reached set below it in
        the subset tree needs it.  :class:`UsageError` when a ``before`` has
        a cycle, :class:`CapacityError` for p above EXACT_GUARD.
        """
        p = self.p
        if not self._var.size:
            raise CapacityError(f"exact search is limited to p <= {EXACT_GUARD}, got p={p}")
        bits = np.int64(1) << np.arange(p)
        want = np.zeros((p, 1 << p), dtype=bool)
        searches = []
        for before in befores:
            before = np.array(before, dtype=np.int64)
            layers, masks = [], np.zeros(1, dtype=np.int64)
            for _ in range(p):
                allowed = ((masks[:, None] & bits) == 0) & ((before & ~masks[:, None]) == 0)
                layers.append((masks, allowed))
                want[:, masks] |= allowed.T
                reached = np.zeros(1 << p, dtype=bool)
                reached[(masks[:, None] | bits)[allowed]] = True
                masks = np.flatnonzero(reached)
                if not masks.size:
                    raise UsageError("the precedence constraints of the order search have a cycle")
            searches.append(layers)
        want &= self._var == 0
        for k in sorted({k for layers in searches for k, (masks, _) in enumerate(layers) if want[:, masks].any()}):
            self._check_capacity(k)
        self._walk(want)
        return searches

    def _walk(self, want: np.ndarray) -> None:
        """Fill the entries marked in the ``(p, 2^p)`` array `want`, walking the subset tree from the empty set.

        A set is visited when its subtree holds a wanted entry.  The sets of
        top bit b are ``2^b + r`` with parent r, so one pass from the top bit
        down marks every ancestor.
        """
        need = want.any(axis=0)
        for b in reversed(range(self.p)):
            need[: 1 << b] |= need[1 << b : 2 << b]
        if need[0]:
            self._visit(self._root(), want, need)

    def _visit(self, nodes: _Nodes, want: np.ndarray, need: np.ndarray) -> None:
        """Fill the wanted entries of the stack `nodes`, then visit the children that `need` marks, depth first.

        The children of the stack are taken by block width, in stacks of at
        most ``STACK_BYTES`` of designs; each stack is grown and visited
        before the next is made, so the walk holds a few stacks per depth,
        never a layer.
        """
        rows, targets = np.nonzero(want[:, nodes.masks].T)
        if rows.size:
            masks = nodes.masks[rows]
            entries = self._entries(targets, self._fits(nodes, rows, targets))
            self._var[targets, masks], self._floored[targets, masks], self._degenerate[targets, masks] = entries
        d, form = nodes.cols.shape[1], 0 if nodes.tops[0] < 0 else 1
        vs = np.arange(self.p)
        under = (nodes.tops[:, None] < vs) & need[nodes.masks[:, None] | 1 << vs]
        vs, rows = np.nonzero(under.T)
        widths = self._widths[form][vs]
        for b in sorted(set(widths.tolist())):
            at = np.flatnonzero(widths == b)
            step = max(STACK_BYTES // (8 * self._c.shape[0] * (d + b)), 1)
            for start in range(0, at.size, step):
                piece = at[start : start + step]
                for child in self._grow(nodes, rows[piece], vs[piece]):
                    self._visit(child, want, need)

    def best_order(self, before) -> tuple[int, ...]:
        """The order of least ``sum log sigma`` in which each v follows the set bits of ``before[v]``.

        Subset DP (Silander & Myllymaki, UAI 2006) over the layers of
        :meth:`fill`, from the full set down: the best completion of a placed
        set is the least ``log sigma(v | set) + best(set + v)`` over its
        allowed v, one numpy step per layer.  ``argmin`` takes the first of
        equal candidates, so ties go to the smallest v and the order is the
        lexicographically smallest minimizer.  The logs are ``math.log``'s.
        p at most EXACT_GUARD, else :class:`CapacityError` (from
        :meth:`fill`).
        """
        full = (1 << self.p) - 1
        bits = np.int64(1) << np.arange(self.p)
        best = np.zeros(full + 1)
        choice = np.zeros(full + 1, dtype=np.intp)
        for masks, allowed in reversed(self.fill(before)[0]):
            rows, vs = np.nonzero(allowed)
            logs = np.fromiter(map(math.log, self._var[vs, masks[rows]].tolist()), dtype=np.float64, count=rows.size)
            cand = np.full(allowed.shape, np.inf)
            cand[rows, vs] = logs + best[masks[rows] | bits[vs]]
            choice[masks] = cand.argmin(axis=1)
            best[masks] = cand[np.arange(masks.size), choice[masks]]
        pi, mask = [], 0
        while mask != full:
            pi.append(int(choice[mask]))
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
