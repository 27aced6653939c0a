"""Causal order estimation by minimizing the sum of log residual variances.

A permutation pi is scored by ``sum_j log sigma_hat_j^2(pi)`` where the j-th
term is the residual variance of the class regression of variable pi_j on all
variables placed before it.  Because each term depends only on (variable,
predecessor set), the global minimizer over all p! permutations is found with
p 2^(p-1) fits by the engine's subset DP (:meth:`ConditionalFits.best_order`),
which also gives the best topological order; a forward greedy search provides
the cheap alternative.  Both read the floored variances and flags of the
sigma table of one :class:`semorder.regress.ConditionalFits` engine per
dataset and break ties lexicographically, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError, as_count, as_sizes
from .regress import EXACT_GUARD, ClassSpec, ConditionalFits
from .semgen import SemSpec, _parent_masks, _validate_perm, in_pi0, sample

__all__ = [
    "OrderEstimate",
    "ConsistencyReport",
    "conditional_sigma",
    "score",
    "estimate_order_exact",
    "estimate_order_greedy",
    "in_pi0",
    "consistency_experiment",
    "EXACT_GUARD",
]


@dataclass
class OrderEstimate:
    """An estimated ordering with its per-position residual variances.

    ``floored`` and ``degenerate`` list 0-based positions whose conditional
    fit hit the variance floor or a rank-deficient design.
    """

    order: tuple[int, ...]
    sigma_hat: np.ndarray
    score: float
    method: str
    floored: tuple[int, ...] = ()
    degenerate: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "order": [v + 1 for v in self.order],
            "sigma_hat": [float(v) for v in self.sigma_hat],
            "score": self.score,
            "method": self.method,
            "floored_positions": [i + 1 for i in self.floored],
            "degenerate_positions": [i + 1 for i in self.degenerate],
        }


def _engine(data, class_spec: ClassSpec) -> ConditionalFits:
    """The fit engine of one dataset, after the estimation rule ``p <= n``."""
    fits = ConditionalFits(data, class_spec)
    if fits.p > fits.n:
        raise UsageError(f"estimation needs p <= n, got p={fits.p}, n={fits.n}")
    return fits


def conditional_sigma(data, v: int, s, class_spec: ClassSpec, return_flags: bool = False):
    """Residual variance of the class fit of column v on column set s.

    Empty s gives the intercept-only fit (or the raw second moment without an
    intercept).  The value carries the variance floor of
    :class:`ConditionalFits`; ``return_flags=True`` also returns (floored, degenerate).
    """
    fits = _engine(data, class_spec)
    rv, floored, degenerate = fits.sigma(int(v), fits.predictor_mask(v, s))
    if return_flags:
        return rv, floored, degenerate
    return rv


def score(data, pi, class_spec: ClassSpec) -> float:
    """Sum of log conditional residual variances along the permutation."""
    fits = _engine(data, class_spec)
    pi = _validate_perm(pi, fits.p)
    return _estimate_from_cache(fits, pi, "given").score


def _estimate_from_cache(fits: ConditionalFits, pi, method: str) -> OrderEstimate:
    return _estimate(pi, fits.along(pi), method)


def _estimate(pi, entries, method: str) -> OrderEstimate:
    """The estimate of order `pi` from its sigma entries: variances and the floored and degenerate flags by position."""
    sigmas, floored, degenerate = entries
    sigmas = np.asarray(sigmas, dtype=np.float64)
    return OrderEstimate(
        order=tuple(pi),
        sigma_hat=sigmas,
        score=float(np.sum(np.log(sigmas))),
        method=method,
        floored=tuple(pos for pos, f in enumerate(floored) if f),
        degenerate=tuple(pos for pos, d in enumerate(degenerate) if d),
    )


def _exact_from_cache(fits: ConditionalFits, before: list[int] | None = None) -> OrderEstimate:
    """Score minimizer over the orders in which each v follows the set bits of ``before[v]``.

    ``before=None`` leaves every permutation allowed; see :meth:`ConditionalFits.best_order`.
    """
    return _estimate_from_cache(fits, fits.best_order(before or [0] * fits.p), "exact")


def estimate_order_exact(data, class_spec: ClassSpec) -> OrderEstimate:
    """Global minimizer of the score over all permutations.

    :meth:`ConditionalFits.best_order`: exact, deterministic, ties broken
    toward the lexicographically smallest permutation, p 2^(p-1) fits.  The
    same DP, restricted to orders that place each variable after its parents,
    gives the best topological order in :func:`consistency_experiment`.
    """
    return _exact_from_cache(_engine(data, class_spec))


def _greedy_from_cache(fits: ConditionalFits) -> OrderEstimate:
    """Each position takes the unplaced variable of least ``log sigma``, the smallest on ties.

    The estimate is made from the entries chosen, so an engine without a
    table (p above EXACT_GUARD) fits none twice.
    """
    p = fits.p
    pi, chosen = [], []
    mask = 0
    for _ in range(p):
        best, best_t = None, math.inf
        unplaced = [v for v in range(p) if not mask >> v & 1]
        for v, entry in zip(unplaced, fits._row(mask, unplaced)):
            t = math.log(entry[0])
            if t < best_t:
                best, best_t = (v, entry), t
        pi.append(best[0])
        chosen.append(best[1])
        mask |= 1 << best[0]
    return _estimate(pi, zip(*chosen), "greedy")


def estimate_order_greedy(data, class_spec: ClassSpec) -> OrderEstimate:
    """Forward greedy ordering: each position takes the best-fitting unused variable.

    Lexicographic tie-break (strict improvement required to displace an
    earlier candidate).  Its score is never below the exact minimum.
    """
    return _greedy_from_cache(_engine(data, class_spec))


@dataclass
class ConsistencyReport:
    """Recovery frequency and score gaps of the estimator across sample sizes."""

    method: str
    seed: int
    reps: int
    rows: list[dict] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "reps": self.reps,
            "rows": self.rows,
            "records": self.records,
        }

    def csv_rows(self):
        header = ["n", "reps", "frequency", "mean_score_gap"]
        return header, [[r["n"], r["reps"], r["frequency"], r["mean_score_gap"]] for r in self.rows]


def consistency_experiment(
    spec: SemSpec,
    class_spec: ClassSpec,
    n_grid,
    reps: int,
    method: str = "exact",
    seed: int = 0,
) -> ConsistencyReport:
    """Monte-Carlo recovery study of the order estimator.

    For each sample size, `reps` independent datasets are drawn (stream
    derived from (seed, n, rep)) and the estimator of the chosen method runs
    on each.  Rows report the fraction of runs whose estimate is a
    topological order of the generating DAG and the mean excess of its score
    over the best topological order on the same data.  That best order comes
    from the exact search's DP restricted to orders that place every
    variable after its parents, reading the same fits as the estimator, so
    no order is enumerated and only the exact search's guard limits p.
    Bit-identical across runs for a fixed seed.
    """
    if method not in ("exact", "greedy"):
        raise UsageError(f"method must be 'exact' or 'greedy', got {method!r}")
    reps = as_count(reps, "reps")
    n_grid = as_sizes(n_grid, "n_grid")
    parents = _parent_masks(spec)
    report = ConsistencyReport(method=method, seed=int(seed), reps=reps)
    for n in n_grid:
        hits = 0
        gaps = np.empty(reps)
        for rep in range(reps):
            data = sample(spec, n, (seed, n, rep))
            fits = _engine(data, class_spec)
            est = _exact_from_cache(fits) if method == "exact" else _greedy_from_cache(fits)
            best_topo = _exact_from_cache(fits, parents).score
            hit = in_pi0(est.order, spec)
            hits += hit
            gaps[rep] = est.score - best_topo
            report.records.append(
                {
                    "n": n,
                    "rep": rep,
                    "order": [v + 1 for v in est.order],
                    "in_pi0": bool(hit),
                    "score": est.score,
                    "score_gap": float(gaps[rep]),
                }
            )
        report.rows.append(
            {
                "n": n,
                "reps": reps,
                "frequency": hits / reps,
                "mean_score_gap": float(gaps.mean()),
            }
        )
    return report
