import itertools
import json
import math
import warnings

import numpy as np
import pytest

from semorder.dictionary import CUBIC_B_SPLINE, PIECEWISE_CONSTANT, TRIGONOMETRIC, Dictionary, design_matrix
from semorder.errors import CapacityError, UsageError
from semorder.order import (
    OrderEstimate,
    _estimate_from_cache,
    _engine,
    _exact_from_cache,
    conditional_sigma,
    consistency_experiment,
    estimate_order_exact,
    estimate_order_greedy,
    in_pi0,
    score,
)
from semorder.regress import ClassSpec, ConditionalFits, fit_over_subsets, fit_span
from semorder.semgen import EdgeFunction, SemSpec, _parent_masks, sample

import oracles


def trig_class(size=3, domain=(-1.0, 1.0)):
    return ClassSpec(Dictionary(TRIGONOMETRIC, size, domain))


def linear_chain(p=2, coef=1.0, noise=1.0):
    edges = {(j, j + 1): EdgeFunction("linear", (coef,)) for j in range(p - 1)}
    return SemSpec(p=p, order=tuple(range(p)), edges=edges, noise_sd=(noise,) * p)


def sine_chain(p=3, amp=2.0, freq=1.5, noise=0.3):
    edges = {(j, j + 1): EdgeFunction("sine", (amp, freq)) for j in range(p - 1)}
    sds = (1.0,) + (noise,) * (p - 1)
    return SemSpec(p=p, order=tuple(range(p)), edges=edges, noise_sd=sds)


def test_conditional_sigma_matches_population_on_chain():
    spec = linear_chain(p=3)
    data = sample(spec, 20_000, seed=40)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-12.0, 12.0)))
    got = conditional_sigma(data.values, 2, {1}, cs)
    # population: Var(X3 | f(X2)) = noise variance 1
    assert abs(got - 1.0) <= 0.1
    marginal = conditional_sigma(data.values, 2, set(), cs)
    assert abs(marginal - 3.0) <= 0.3  # Var(X3) = 1 + Var(X2) = 3


def test_conditional_sigma_validation_and_flags():
    rng = np.random.default_rng(41)
    data = rng.standard_normal((50, 3))
    cs = trig_class()
    with pytest.raises(UsageError):
        conditional_sigma(data, 1, {1}, cs)
    with pytest.raises(UsageError):
        conditional_sigma(data, 5, {0}, cs)
    val, floored, degenerate = conditional_sigma(data, 0, {1, 2}, cs, return_flags=True)
    assert val > 0.0 and not floored and not degenerate


def test_conditional_sigma_exact_fit_hits_floor():
    rng = np.random.default_rng(42)
    z = rng.standard_normal(200)
    z = z[np.abs(z) > 1e-3]
    data = np.column_stack([np.sign(z), z])
    # the partition splits at 0, so the sign target is fit exactly and the
    # residual variance floor keeps the log score finite
    cs = ClassSpec(Dictionary(PIECEWISE_CONSTANT, 2, (-4.0, 4.0)), intercept=False)
    val, floored, degenerate = conditional_sigma(data, 0, {1}, cs, return_flags=True)
    assert val > 0.0
    assert floored


def test_degenerate_flags_rank_below_class_span():
    # spline blocks are collinear with the intercept by construction yet span
    # the full class dimension k(N-1)+1; piecewise-constant cells that no
    # sample point reaches lose rank and stay flagged
    data = sample(sine_chain(p=9), 1000, seed=51).values
    spline = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))
    pc = ClassSpec(Dictionary(PIECEWISE_CONSTANT, 6, (-5.0, 5.0)))
    subsets = [(1,), (1, 2, 3), tuple(range(1, 9))]
    for key, fit in fit_over_subsets(data, 0, spline, subsets).items():
        assert fit.rank == 5 * len(key) + 1 and not fit.degenerate
        # fit_span itself still flags a rank below the column count
        assert fit_span(design_matrix(spline.dictionary, [data[:, k] for k in key]), data[:, 0]).degenerate
    for key, fit in fit_over_subsets(data, 0, pc, subsets).items():
        assert fit.rank < 5 * len(key) + 1 and fit.degenerate
    assert estimate_order_greedy(data, spline).degenerate == ()
    assert estimate_order_greedy(data, pc).degenerate != ()


def test_estimators_reject_data_without_finite_mean_square():
    rng = np.random.default_rng(60)
    data = rng.standard_normal((50, 3))
    data[7, 1] = np.nan
    with pytest.raises(UsageError, match="x2"):
        estimate_order_exact(data, trig_class())
    data[7, 1] = 0.0
    data[:, 2] *= 1e160  # finite entries whose squares overflow
    with pytest.raises(UsageError, match="x3"):
        estimate_order_greedy(data, trig_class())


def test_score_independent_columns_permutation_invariant():
    rng = np.random.default_rng(43)
    data = rng.standard_normal((4000, 3))
    cs = trig_class()
    perms = [(0, 1, 2), (2, 1, 0), (1, 2, 0), (0, 2, 1)]
    vals = [score(data, pi, cs) for pi in perms]
    assert max(vals) - min(vals) <= 0.05


def test_score_linear_chain_symmetric_in_direction():
    spec = linear_chain(p=2)
    data = sample(spec, 30_000, seed=44)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-12.0, 12.0)))
    fwd = score(data.values, (0, 1), cs)
    rev = score(data.values, (1, 0), cs)
    # Gaussian linear equal-variance pairs leave both directions equally good
    assert abs(fwd - rev) <= 0.05


def test_score_validates_permutation():
    rng = np.random.default_rng(45)
    data = rng.standard_normal((30, 3))
    cs = trig_class()
    with pytest.raises(UsageError):
        score(data, (0, 1), cs)
    with pytest.raises(UsageError):
        score(data, (0, 1, 1), cs)


def test_exact_matches_enumeration_bit_for_bit():
    rng = np.random.default_rng(46)
    # the spline and piecewise-constant classes are served by the engine's
    # reduced blocks; the outer cells of the latter are empty
    spline = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0)))
    cells = ClassSpec(Dictionary(PIECEWISE_CONSTANT, 8, (-6.0, 6.0)))
    no_intercept = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0)), intercept=False)
    for cs in (trig_class(), spline, cells, no_intercept):
        for _ in range(10):
            p = int(rng.integers(3, 5))
            data = rng.standard_normal((150, p))
            est = estimate_order_exact(data, cs)
            ref_score, ref_pi = oracles.enumerate_order(data, cs)
            assert est.score == ref_score  # exact float equality, no tolerance
            assert tuple(est.order) == ref_pi


def test_exact_search_with_l1_class_matches_enumeration():
    # an l1 class end to end: every fit of the sigma table is a certified
    # exact solution that raises no warning, and the DP finds the best of
    # all 24 orders
    data = sample(sine_chain(p=4), 500, seed=53).values
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)), kind="l1", budget=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = ConditionalFits(data, cs)
        for v in range(4):
            for mask in range(1, 16):
                if not mask >> v & 1:
                    fit = fits.fit(v, mask)
                    assert fit.converged and fit.kkt_residual <= 1e-12
        est = estimate_order_exact(data, cs)
        scores = {pi: score(data, pi, cs) for pi in itertools.permutations(range(4))}
    best = min(scores.values())
    assert est.score == best
    assert tuple(est.order) == min(pi for pi, s in scores.items() if s == best)


def test_exact_tie_break_is_lexicographic():
    # reversing a column preserves its sample moments exactly, and a
    # single-cell piecewise-constant class makes every conditional fit the
    # intercept-only fit, so all permutation scores tie bit for bit
    rng = np.random.default_rng(47)
    x1 = rng.standard_normal(64)
    data = np.column_stack([x1, x1[::-1]])
    cs = ClassSpec(Dictionary(PIECEWISE_CONSTANT, 1, (-8.0, 8.0)))
    est = estimate_order_exact(data, cs)
    assert tuple(est.order) == (0, 1)
    assert score(data, (0, 1), cs) == score(data, (1, 0), cs)


def best_topological(fits, spec):
    """Lowest score over the topological orders, the lexicographically first on ties."""
    best_score, best_pi = math.inf, None
    for pi in oracles.topological_filter(spec):
        s = _estimate_from_cache(fits, pi, "given").score
        if s < best_score:
            best_score, best_pi = s, pi
    return best_score, best_pi


def test_constrained_exact_matches_topological_enumeration():
    rng = np.random.default_rng(57)
    cs = trig_class()
    for _ in range(8):
        spec = oracles.random_dag(rng, 3, 6)
        fits = _engine(rng.standard_normal((150, spec.p)), cs)
        est = _exact_from_cache(fits, _parent_masks(spec))
        # exactly the (variable, placed set) steps of some topological order are fitted
        steps = {
            (pi[i], sum(1 << v for v in pi[:i]))
            for pi in oracles.topological_filter(spec)
            for i in range(spec.p)
        }
        assert set(fits._memo) == steps
        assert (est.score, est.order) == best_topological(fits, spec)
    # three equal columns under an intercept-only class tie every score bit
    # for bit; the edge 3 -> 1 leaves (2, 3, 1) as the first topological order
    x1 = rng.standard_normal(64)
    data = np.column_stack([x1, x1, x1])
    edges = {(2, 0): EdgeFunction("linear", (1.0,))}
    spec = SemSpec(p=3, order=(2, 0, 1), edges=edges, noise_sd=(1.0,) * 3)
    fits = _engine(data, ClassSpec(Dictionary(PIECEWISE_CONSTANT, 1, (-8.0, 8.0))))
    est = _exact_from_cache(fits, _parent_masks(spec))
    assert (est.score, est.order) == best_topological(fits, spec)
    assert est.order == (1, 2, 0)


def test_greedy_never_beats_exact():
    rng = np.random.default_rng(48)
    cs = trig_class()
    for _ in range(10):
        p = int(rng.integers(3, 6))
        data = rng.standard_normal((120, p))
        exact = estimate_order_exact(data, cs)
        greedy = estimate_order_greedy(data, cs)
        assert greedy.score >= exact.score - 1e-12
        assert greedy.method == "greedy" and exact.method == "exact"


def test_estimators_recover_sine_chain():
    spec = sine_chain(p=3)
    data = sample(spec, 4000, seed=49)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))
    exact = estimate_order_exact(data.values, cs)
    greedy = estimate_order_greedy(data.values, cs)
    assert in_pi0(exact.order, spec)
    assert in_pi0(greedy.order, spec)


def test_exact_capacity_guard():
    rng = np.random.default_rng(50)
    data = rng.standard_normal((40, 19))
    cs = ClassSpec(Dictionary(PIECEWISE_CONSTANT, 1, (-8.0, 8.0)))
    with pytest.raises(CapacityError):
        estimate_order_exact(data, cs)
    est = estimate_order_greedy(data, cs)  # greedy has no such guard
    assert len(est.order) == 19


def test_relabeling_equivariance():
    spec = sine_chain(p=3)
    data = sample(spec, 1500, seed=51).values
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))
    base = estimate_order_exact(data, cs)
    relabel = (2, 0, 1)  # column j of the new data is old column relabel[j]
    shuffled = data[:, relabel]
    est = estimate_order_exact(shuffled, cs)
    inverse = {old: new for new, old in enumerate(relabel)}
    assert tuple(est.order) == tuple(inverse[v] for v in base.order)
    assert abs(est.score - base.score) <= 1e-9


def test_in_pi0_collider_exactly_two():
    edges = {(0, 2): EdgeFunction("linear", (1.0,)), (1, 2): EdgeFunction("linear", (1.0,))}
    spec = SemSpec(p=3, order=(0, 1, 2), edges=edges, noise_sd=(1.0, 1.0, 1.0))
    import itertools

    good = [pi for pi in itertools.permutations(range(3)) if in_pi0(pi, spec)]
    assert good == [(0, 1, 2), (1, 0, 2)]


def test_order_estimate_json_round_trip():
    rng = np.random.default_rng(52)
    data = rng.standard_normal((200, 3))
    est = estimate_order_exact(data, trig_class())
    blob = json.loads(json.dumps(est.to_json()))
    assert blob["order"] == [v + 1 for v in est.order]
    assert blob["method"] == "exact"
    assert len(blob["sigma_hat"]) == 3
    assert blob["score"] == est.score
    assert blob["floored_positions"] == []
    assert "degenerate_positions" in blob


def test_consistency_linear_chain_near_coin_flip():
    spec = linear_chain(p=2)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-12.0, 12.0)))
    rep = consistency_experiment(spec, cs, [800], reps=100, seed=53)
    freq = rep.rows[0]["frequency"]
    # both directions fit a linear Gaussian equal-variance pair equally well
    assert 0.35 <= freq <= 0.65


def test_consistency_sine_chain_improves_with_n():
    spec = sine_chain(p=3)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))
    rep = consistency_experiment(spec, cs, [300, 3000], reps=30, seed=54)
    f_small = rep.rows[0]["frequency"]
    f_large = rep.rows[1]["frequency"]
    se = math.sqrt(max(f_small * (1 - f_small), 0.25 / 30) / 30)
    assert f_large >= f_small - 2 * se
    assert f_large >= 0.9
    assert rep.rows[1]["n"] == 3000 and rep.rows[1]["reps"] == 30


def test_consistency_tiny_sample_completes():
    spec = linear_chain(p=2)
    cs = trig_class()
    n_min = 2 * 3 + 2  # p*N + intercepts, the smallest workable design
    rep = consistency_experiment(spec, cs, [n_min], reps=5, seed=55)
    assert rep.rows[0]["reps"] == 5
    assert 0.0 <= rep.rows[0]["frequency"] <= 1.0


def test_consistency_report_shape():
    spec = sine_chain(p=3)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 5, (-5.0, 5.0)))
    rep = consistency_experiment(spec, cs, [400, 900], reps=4, seed=56, method="greedy")
    assert rep.method == "greedy"
    assert [r["n"] for r in rep.rows] == [400, 900]
    for row in rep.rows:
        assert set(row) == {"n", "reps", "frequency", "mean_score_gap"}
    for rec in rep.records:
        assert set(rec) == {"n", "rep", "order", "in_pi0", "score", "score_gap"}
        assert min(rec["order"]) == 1  # orders reported 1-based
    header, rows = rep.csv_rows()
    assert header == ["n", "reps", "frequency", "mean_score_gap"]
    assert len(rows) == 2
    blob = rep.to_json()
    assert blob["method"] == "greedy" and len(blob["rows"]) == 2


def test_consistency_score_gap_is_to_best_topological_order():
    spec = linear_chain(p=2)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-12.0, 12.0)))
    rep = consistency_experiment(spec, cs, [200], reps=20, seed=59)
    hits = [rec["in_pi0"] for rec in rep.records]
    assert any(hits) and not all(hits)
    for rec in rep.records:
        # a topological estimate is the best topological order; any other beats it
        if rec["in_pi0"]:
            assert rec["score_gap"] == 0.0
        else:
            assert rec["score_gap"] < 0.0


def test_consistency_greedy_runs_past_ten_variables():
    spec = sine_chain(p=11)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 5, (-5.0, 5.0)))
    rep = consistency_experiment(spec, cs, [400], reps=2, seed=58, method="greedy")
    assert rep.rows[0]["reps"] == 2 and len(rep.records) == 2
    for rec in rep.records:
        assert len(rec["order"]) == 11
        # the best topological order bounds every topological estimate
        if rec["in_pi0"]:
            assert rec["score_gap"] >= -1e-9


def test_consistency_validation():
    spec = linear_chain(p=2)
    cs = trig_class()
    with pytest.raises(UsageError):
        consistency_experiment(spec, cs, [], reps=3)
    with pytest.raises(UsageError):
        consistency_experiment(spec, cs, [100], reps=0)
    with pytest.raises(UsageError):
        consistency_experiment(spec, cs, [100], reps=3, method="anneal")
