"""Least-squares regression onto dictionary spans, with optional l1 budgets.

Two estimators over the same additive design:

* :func:`fit_span` solves unpenalized least squares (minimum-norm under rank
  deficiency);
* :func:`fit_l1` minimizes the same objective subject to an l1 budget on the
  non-intercept coefficients, exactly, by the lasso homotopy, and certifies
  the result with an explicit KKT residual.

:class:`ConditionalFits` fits one column of a data matrix on a set of the
others by the rules of a :class:`ClassSpec`; every conditional fit in the
package goes through it or through :meth:`ClassSpec.fit`.  It also owns the
sigma table, with its variance floor and flags, that order search and the
identifiability gap read.

:func:`misspec_experiment` measures convergence of the fitted coefficients to
the population projection when the true regression function lies outside the
class.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import empproc
from ._linalg import least_squares, pinv_solve_psd, whitener
from ._rng import derived_rng
from .dictionary import TRIGONOMETRIC, Dictionary, basis_matrix, stack_design
from .errors import CapacityError, DegeneracyError, UsageError, as_number

SPAN = "span"
L1 = "l1"

__all__ = [
    "ClassSpec",
    "FitResult",
    "ProjectionResult",
    "MisspecTruth",
    "MisspecReport",
    "fit_span",
    "fit_l1",
    "kkt_residual",
    "population_projection",
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

    def design(self, columns) -> np.ndarray:
        """The design that :meth:`fit` solves on the given input columns, in that order."""
        if not len(columns):
            raise UsageError("a class design needs at least one input column")
        n = np.ravel(columns[0]).shape[0]
        return _stack(self, self._parts(columns, n), n)

    def total_budget(self, n_blocks: int) -> float:
        if self.kind != L1:
            raise UsageError("total_budget is only defined for l1 classes")
        return self.budget * n_blocks

    def fit(self, columns, y) -> "FitResult":
        """Fit the class regression of `y` on the given input columns, in that order (see :func:`_fit_blocks`)."""
        y = np.asarray(y, dtype=np.float64).ravel()
        return _fit_blocks(self, self._parts(columns, y.shape[0]), y)

    def _parts(self, columns, n: int) -> list[tuple[np.ndarray, np.ndarray, bool]]:
        blocks = [basis_matrix(self.dictionary, np.ravel(c)) for c in columns]
        if any(b.shape[0] != n for b in blocks):
            raise UsageError(f"input columns must all have {n} rows")
        return [_design_block(self, b) for b in blocks]

    def to_config(self) -> dict:
        cfg = {"dictionary": self.dictionary.to_config(), "kind": self.kind, "intercept": self.intercept}
        if self.kind == L1:
            cfg["budget"] = self.budget
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "ClassSpec":
        try:
            dcfg = cfg["dictionary"]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"class config needs a dictionary entry, got {cfg!r}") from exc
        intercept = cfg.get("intercept", True)
        if not isinstance(intercept, bool):
            raise UsageError(f"class entry 'intercept' must be true or false, got {intercept!r}")
        return cls(
            dictionary=Dictionary.from_config(dcfg),
            kind=str(cfg.get("kind", SPAN)),
            budget=cfg.get("budget"),
            intercept=intercept,
        )


@dataclass
class FitResult:
    """Outcome of one least-squares fit."""

    coefficients: np.ndarray
    residual_variance: float
    kind: str
    degenerate: bool = False
    converged: bool = True
    kkt_residual: float | None = None
    budget: float | None = None
    intercept: bool = False
    n_obs: int = 0
    rank: int | None = None


@dataclass
class ProjectionResult:
    """Population least-squares projection coefficients."""

    coefficients: np.ndarray
    degenerate: bool = False


def fit_span(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Ordinary least squares; minimum-norm coefficients if rank-deficient.

    Solved by :func:`semorder._linalg.least_squares`: a certified Cholesky
    solve when `x` is well conditioned, else LAPACK's ``gelsd``.  The residual
    variance is the mean squared residual ``y - x beta`` (no
    degrees-of-freedom correction).  ``rank`` is the numerical rank of `x`,
    the number of singular values above ``RANK_REL_TOL`` times the largest;
    ``degenerate`` marks a rank below the column count.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise UsageError(f"incompatible shapes {x.shape} and {y.shape}")
    if x.shape[0] < 1:
        raise UsageError("need at least one observation")
    beta, rank = least_squares(x, y)
    resid = y - x @ beta
    rv = float(resid @ resid) / x.shape[0]
    return FitResult(
        coefficients=beta,
        residual_variance=rv,
        kind=SPAN,
        degenerate=rank < x.shape[1],
        n_obs=x.shape[0],
        rank=rank,
    )


def _split_penalized(v: np.ndarray, intercept: bool) -> np.ndarray:
    return v[1:] if intercept else v


def kkt_residual(x: np.ndarray, y: np.ndarray, beta: np.ndarray, budget: float, intercept: bool = False) -> float:
    """Stationarity residual for the l1-constrained least-squares problem.

    For an interior point the residual is the sup-norm of the gradient (the
    intercept coordinate included either way).  On the boundary it measures
    how far the negative gradient is from a common multiplier ``lam =
    max_j |grad_j|`` aligned with the sign pattern on the support.  A true
    minimizer has residual 0; small residuals certify near-optimality.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    beta = np.asarray(beta, dtype=np.float64).ravel()
    n = x.shape[0]
    grad = 2.0 * (x.T @ (x @ beta - y)) / n
    return _kkt_from_gradient(grad, beta, budget, intercept)


def _kkt_from_gradient(grad: np.ndarray, beta: np.ndarray, budget: float, intercept: bool) -> float:
    g_int = abs(float(grad[0])) if intercept and grad.shape[0] else 0.0
    g_pen = _split_penalized(grad, intercept)
    b_pen = _split_penalized(beta, intercept)
    if g_pen.shape[0] == 0:
        return g_int
    used = float(np.abs(b_pen).sum())
    if used < budget - 1e-6:
        return max(g_int, float(np.max(np.abs(g_pen))))
    lam = float(np.max(np.abs(g_pen)))
    support = np.abs(b_pen) > 1e-10 * max(1.0, budget)
    if not np.any(support):
        return g_int
    align = float(np.max(np.abs(-g_pen[support] * np.sign(b_pen[support]) - lam)))
    return max(g_int, align)


def fit_l1(
    x: np.ndarray,
    y: np.ndarray,
    budget: float,
    tol: float = 1e-8,
    max_iter: int = 50000,
    intercept: bool = False,
) -> FitResult:
    """Least squares under ``sum_j |beta_j| <= budget`` (intercept exempt).

    Solved exactly by the lasso homotopy of :func:`_lasso_path` on the moment
    form ``a = x'x / n``, ``b = x'y / n``, after one Schur complement on column
    0 removes an intercept.  ``converged`` requires the KKT residual of
    :func:`kkt_residual` to be at most `tol`; a path cut at `max_iter` steps
    never converges.  A fit that does not converge warns.  On collinear
    columns the coefficients may not be unique; the fitted values are.

    Parameters
    ----------
    x, y : ndarray
        Design (n, d) and response (n,).  When ``intercept=True`` column 0 of
        `x` is treated as the unpenalized intercept.
    budget : float
        Nonnegative l1 budget over the penalized coordinates.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise UsageError(f"incompatible shapes {x.shape} and {y.shape}")
    if x.shape[0] < 1:
        raise UsageError("need at least one observation")
    if not (budget >= 0):
        raise UsageError(f"budget must be nonnegative, got {budget!r}")
    n, d = x.shape
    if d == 0:
        return FitResult(np.zeros(0), float(y @ y) / n, L1, kkt_residual=0.0, budget=budget, n_obs=n)

    a = x.T @ x / n
    b = x.T @ y / n
    beta, steps, done = _l1_moment_fit(a, b, budget, intercept, max_iter)
    residual = _kkt_from_gradient(2.0 * (a @ beta - b), beta, budget, intercept)
    converged = done and residual <= tol
    if not converged:
        msg = f"l1 fit stopped after {steps} path steps with KKT residual {residual:.3e} > {tol:.1e}"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    resid = y - x @ beta
    return FitResult(
        coefficients=beta,
        residual_variance=float(resid @ resid) / n,
        kind=L1,
        converged=bool(converged),
        kkt_residual=float(residual),
        budget=float(budget),
        intercept=intercept,
        n_obs=n,
    )


def _l1_moment_fit(a: np.ndarray, b: np.ndarray, budget: float, intercept: bool, max_steps: int = 50000):
    """Minimize ``beta'a beta - 2 b'beta`` under an l1 budget on the penalized coordinates.

    The moment form of :func:`fit_l1`.  With an intercept, one Schur
    complement on column 0 removes it before :func:`_lasso_path`; a zero
    column 0 gets coefficient 0.  Returns ``(beta, steps, finished)``.
    """
    if not intercept:
        return _lasso_path(a, b, budget, max_steps)
    pivot, col = a[0, 0] or 1.0, a[1:, 0]
    a_pen, b_pen = a[1:, 1:] - np.outer(col, col) / pivot, b[1:] - col * (b[0] / pivot)
    v, steps, done = _lasso_path(a_pen, b_pen, budget, max_steps)
    return np.concatenate([[(b[0] - col @ v) / pivot], v]), steps, done


def _lasso_path(a: np.ndarray, b: np.ndarray, budget: float, max_steps: int) -> tuple[np.ndarray, int, bool]:
    """Minimize ``v'a v - 2 b'v`` over ``||v||_1 <= budget`` by the lasso homotopy.

    The penalized minimizer is piecewise linear in its multiplier ``lam``
    (Osborne, Presnell & Turlach 2000; Efron et al. 2004).  From ``v = 0`` at
    ``lam = max|b|``, the correlations ``c = b - a v`` of the active set S stay
    at ``lam`` times their signs s while v moves along ``a_SS^-1 s`` and
    ``lam`` falls at unit rate, up to the nearest event: a column joins S, a
    coefficient reaches 0 and leaves, the budget binds, or ``lam`` reaches 0
    (least squares).  A joining column that leaves ``a_SS`` singular is in the
    span of S, so its correlation stays at ``lam`` by itself: it stays out
    until a column leaves.  Returns ``(v, steps, finished)``.
    """
    dim = b.shape[0]
    v, sign, riding = np.zeros(dim), np.zeros(dim), np.zeros(dim, dtype=bool)
    lam = float(np.max(np.abs(b), initial=0.0))
    if budget == 0 or lam == 0:
        return v, 0, True
    c, j = b, int(np.argmax(np.abs(b)))
    sign[j] = np.sign(b[j])
    for step in range(1, max_steps + 1):
        act, dv = np.flatnonzero(sign), np.zeros(dim)
        dv[act], singular = pinv_solve_psd(a[np.ix_(act, act)], sign[act])
        if singular:
            sign[j], riding[j] = 0.0, True
            continue
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
            v[event - 2] = sign[event - 2] = 0.0
            riding[:] = False
        else:
            j = event - 2 - dim
            sign[j] = 1.0 if up[j] <= down[j] else -1.0
        c = b - a @ v
    return v, max_steps, False


def population_projection(sigma: np.ndarray, c: np.ndarray) -> ProjectionResult:
    """Coefficients of the population projection ``argmin_b b'Sigma b - 2 c'b``.

    `sigma` must be symmetric positive semidefinite; a singular system is
    solved in the minimum-norm sense and flagged.
    """
    beta, degenerate = pinv_solve_psd(sigma, np.asarray(c, dtype=np.float64).ravel())
    return ProjectionResult(coefficients=beta, degenerate=degenerate)


def _design_block(class_spec: ClassSpec, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """The columns that a class design keeps of the basis block `block`: the package's one rule.

    Returns the block as the design's first block and as a later one, and
    whether it kept every basis function.  A span class drops the all-zero
    columns (cells no observation reaches).  A partition-of-unity block (any
    family but the trigonometric) sums to the constants, so it also drops its
    last remaining column once the design's span has them: always with an
    intercept, after the first block without one.  The span is unchanged; with
    every cell reached the design has one column per dimension of the span,
    ``k(N-1)+1`` for k such blocks, else ``intercept + kN``.  Fortran order
    keeps the rounding of ``x'x`` independent of empty cells.  An l1 class
    keeps every block whole, since dropping a column would change the l1 ball.
    """
    if class_spec.kind == L1:
        return block, block, True
    keep = block.any(axis=0)
    full = bool(keep.all())
    if class_spec.dictionary.family == TRIGONOMETRIC:
        block = block if full else block[:, keep]
        return block, block, full
    block = np.asfortranarray(block[:, keep])
    return (block[:, :-1] if class_spec.intercept else block), block[:, :-1], full


def _stack(class_spec: ClassSpec, parts, n: int) -> np.ndarray:
    """The design ``[1 | blocks...]`` on the :func:`_design_block` triples `parts`, in design order."""
    return stack_design([part[i > 0] for i, part in enumerate(parts)], class_spec.intercept, n)


def _fit_blocks(class_spec: ClassSpec, parts, y: np.ndarray) -> FitResult:
    """Class regression of `y` on the :func:`_design_block` triples `parts`, in design order.

    The one place that picks a class fit's solver: an l1 class with k >= 1
    blocks takes ``total_budget(k)``, every other fit is a span fit.  With
    neither blocks nor intercept the residual is `y` itself, so the residual
    variance is ``mean(y*y)``.  A span fit is ``degenerate`` only when its
    rank is below the dimension of the class span: below the design's column
    count, or a block lost an all-zero column.  l1 fits are never flagged.
    """
    n, k = y.shape[0], len(parts)
    if k == 0 and not class_spec.intercept:
        return FitResult(np.zeros(0), float(np.mean(y * y)), SPAN, n_obs=n, rank=0)
    design = _stack(class_spec, parts, n)
    if class_spec.kind == L1 and k:
        return fit_l1(design, y, class_spec.total_budget(k), intercept=class_spec.intercept)
    fit = fit_span(design, y)
    return replace(fit, degenerate=fit.degenerate or not all(part[2] for part in parts))


class ConditionalFits:
    """Class regressions of the columns of one data matrix on sets of the others.

    The package's one conditional-fit engine, built once per data matrix; the
    order search, the population residual variances and
    :func:`fit_over_subsets` all read their fits from it.  It owns:

    * the data check: every column's mean square must be finite, else
      :class:`UsageError` naming the column;
    * one basis block per column, built on first use and reduced by
      :func:`_design_block`, the rule that :meth:`ClassSpec.fit` follows too;
    * the capacity rule ``|S| N + 1 <= n``, else :class:`CapacityError`;
    * the design ``[1 | B_k ...]`` with blocks in ascending column order, and
      the span/l1 dispatch and empty-design convention of :func:`_fit_blocks`;
    * the sigma table: ``(residual variance, floored, degenerate)`` keyed by
      (variable, predecessor bitmask), each variance floored at
      ``max(1e-12 * mean square, tiny)`` of its column so that logs stay
      finite, and its walk along an order (:meth:`along`).
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
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray, bool]] = {}
        self._memo: dict[tuple[int, int], tuple[float, bool, bool]] = {}

    def predictor_mask(self, v: int, s) -> int:
        """Bitmask of the conditioning set `s` of target column `v`, after checking both.

        Every index must be a column, `s` may not repeat one, and `v` may not be in `s`.
        """
        v = int(v)
        if not (0 <= v < self.p):
            raise UsageError(f"target column {v} out of range for {self.p} columns")
        mask = 0
        for k in s:
            k = int(k)
            if not (0 <= k < self.p):
                raise UsageError(f"conditioning index {k} out of range for {self.p} columns")
            if k == v:
                raise UsageError(f"target column {v} cannot be conditioned on itself")
            if mask >> k & 1:
                raise UsageError(f"conditioning set {s!r} has repeated indices")
            mask |= 1 << k
        return mask

    def fit(self, v: int, mask: int) -> FitResult:
        """Fit column `v` on the columns whose bits are set in `mask` (not memoized)."""
        cols = [k for k in range(self.p) if mask & (1 << k)]
        need = len(cols) * self.class_spec.dictionary.size + 1
        if need > self.n:
            raise CapacityError(f"conditioning on {len(cols)} columns needs {need} rows, have {self.n}")
        for k in cols:
            if k not in self._blocks:
                block = basis_matrix(self.class_spec.dictionary, self.values[:, k])
                self._blocks[k] = _design_block(self.class_spec, block)
        return _fit_blocks(self.class_spec, [self._blocks[k] for k in cols], self.values[:, v])

    def sigma(self, v: int, mask: int) -> tuple[float, bool, bool]:
        """Memoized ``(floored residual variance, floored, degenerate)`` of :meth:`fit`."""
        hit = self._memo.get((v, mask))
        if hit is None:
            fit = self.fit(v, mask)
            floored = fit.residual_variance < self._floor[v]
            rv = self._floor[v] if floored else fit.residual_variance
            hit = self._memo[(v, mask)] = (rv, floored, fit.degenerate)
        return hit

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


def fit_over_subsets(data, j: int, class_spec: ClassSpec, subsets) -> dict[tuple[int, ...], FitResult]:
    """Fit the class regression of column `j` on each subset of other columns.

    All fits come from one :class:`ConditionalFits` engine, so each column's
    basis block is built once.  Each fit equals ``class_spec.fit`` on the
    same columns in ascending order.  The coefficients of an l1 class on
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
        if not (float(self.noise_sd) >= 0):
            raise UsageError(f"noise_sd must be nonnegative, got {self.noise_sd!r}")
        object.__setattr__(self, "noise_sd", float(self.noise_sd))


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

    The design is uniform on the class dictionary's domain.  A large oracle
    sample pins down the population quantities: projection coefficients (for
    an l1 class, the l1-constrained projection at the budget that
    :meth:`ClassSpec.fit` uses, solved on the oracle moments like
    :func:`fit_l1`), the population residual variance, and the moment
    matrix used both for the distance metric and for the theoretical rate.  Cell ``(n, rep)`` uses the
    stream derived from ``(seed, n, rep)``; the oracle uses ``(seed,
    oracle_n, 0)``, so the cell with ``n == oracle_n``, ``rep == 0`` sees
    exactly the oracle sample.  Each design keeps the columns that
    :meth:`ClassSpec.fit` keeps, so ``n_features`` is the span's dimension.
    :class:`DegeneracyError` is raised when Sigma fails the positive definite
    rule of :func:`whitener`, naming ``Lambda_min``, and when a cell's fit is
    degenerate or lacks a column that the oracle keeps.

    Per cell the report records the Sigma-weighted coefficient distance
    ``sqrt((b - b*)' Sigma (b - b*))`` and the gap between empirical and
    population residual variance; per sample size it records their mean and
    0.9 quantile plus the ratio of the mean distance to the plug-in rate from
    :func:`semorder.empproc.delta_n`.
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(n < 1 for n in n_grid):
        raise UsageError(f"n_grid must contain positive integers, got {n_grid!r}")
    if reps < 1:
        raise UsageError("reps must be at least 1")
    a, b = class_spec.dictionary.domain

    def draw(rng, n):
        x = rng.uniform(a, b, n)
        y = np.asarray(truth.mean(x), dtype=np.float64) + truth.noise_sd * rng.standard_normal(n)
        return x, y

    x_o, y_o = draw(derived_rng(seed, oracle_n, 0), oracle_n)
    psi_o = class_spec.design([x_o])
    d = psi_o.shape[1]
    if oracle_n < 10 * d:
        raise UsageError(f"oracle_n={oracle_n} too small for {d} features (need >= {10 * d})")
    sigma_o = psi_o.T @ psi_o / oracle_n
    c_o = psi_o.T @ y_o / oracle_n
    if class_spec.kind == L1:
        beta_star = _l1_moment_fit(sigma_o, c_o, class_spec.total_budget(1), class_spec.intercept)[0]
    else:
        beta_star = population_projection(sigma_o, c_o).coefficients
    resid_o = y_o - psi_o @ beta_star
    pop_rv = float(resid_o @ resid_o) / oracle_n
    k0 = float(np.sqrt(np.mean(y_o**2)))
    lam_min = empproc.lambda_min(sigma_o)
    whitener(*np.linalg.eigh(sigma_o), name="oracle moment matrix Sigma_o")

    report = MisspecReport(
        truth_label=truth.label,
        class_config=class_spec.to_config(),
        oracle_n=int(oracle_n),
        seed=int(seed),
        beta_star=beta_star,
        population_residual_variance=pop_rv,
        k0=k0,
        lambda_min=lam_min,
        n_features=d,
    )
    mean_dists = []
    for n in n_grid:
        dists = np.empty(reps)
        vgaps = np.empty(reps)
        for rep in range(reps):
            x, y = draw(derived_rng(seed, n, rep), n)
            fit = class_spec.fit([x], y)
            if fit.degenerate or fit.coefficients.shape != beta_star.shape:
                raise DegeneracyError(f"the n={n} sample of rep {rep} does not determine the {d} coefficients")
            db = fit.coefficients - beta_star
            dists[rep] = float(np.sqrt(max(db @ (sigma_o @ db), 0.0)))
            vgaps[rep] = abs(fit.residual_variance - pop_rv)
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
