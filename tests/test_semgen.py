import itertools
import math

import numpy as np
import pytest

from semorder import dictionary, regress, semgen
from semorder._rng import derived_rng
from semorder.dictionary import CUBIC_B_SPLINE, PIECEWISE_CONSTANT, TRIGONOMETRIC, Dictionary
from semorder.errors import CapacityError, UsageError
from semorder.regress import ClassSpec
from semorder.semgen import (
    DataMatrix,
    EdgeFunction,
    SemSpec,
    identifiability_gap,
    in_pi0,
    population_sigma,
    sample,
)

import oracles


def spline_class(size=6, domain=(-8.0, 8.0)):
    return ClassSpec(Dictionary(CUBIC_B_SPLINE, size, domain), kind="span", intercept=True)


def test_sample_standard_normal_marginal():
    spec = SemSpec(p=1, order=(0,), edges={}, noise_sd=(1.0,))
    data = sample(spec, 100_000, seed=4)
    assert abs(np.var(data.values[:, 0]) - 1.0) <= 0.03


def test_sample_sine_chain_variance_against_quadrature():
    spec = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.sine(1.0, 1.0)}, noise_sd=(1.0, 0.5))
    data = sample(spec, 100_000, seed=5)
    _, var_sin = oracles.normal_moments(np.sin)
    assert abs(np.var(data.values[:, 1]) - (var_sin + 0.25)) <= 0.03


def test_sample_deterministic():
    spec = SemSpec(p=3, order=(2, 0, 1), edges={(2, 0): EdgeFunction.tanh(1.3)}, noise_sd=(1.0, 0.7, 2.0))
    a = sample(spec, 5000, seed=77)
    b = sample(spec, 5000, seed=77)
    assert np.array_equal(a.values, b.values)


def test_sample_respects_generation_order():
    # the source variable is pure noise regardless of its column position
    spec = SemSpec(p=2, order=(1, 0), edges={(1, 0): EdgeFunction.linear(2.0)}, noise_sd=(1.0, 1.0))
    data = sample(spec, 50_000, seed=8)
    x0, x1 = data.values[:, 0], data.values[:, 1]
    assert abs(np.var(x1) - 1.0) <= 0.05
    assert abs(np.var(x0) - 5.0) <= 0.15


def _multi_parent_dag(fn):
    """A 4-variable DAG with every edge `fn`, where x2 has the parents x0 and x3, and x1 has x0, x2 and x3."""
    edges = {(0, 3): fn, (0, 2): fn, (3, 2): fn, (0, 1): fn, (2, 1): fn, (3, 1): fn}
    return SemSpec(p=4, order=(0, 3, 2, 1), edges=edges, noise_sd=(1.0, 0.4, 0.3, 0.5))


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10001])
@pytest.mark.parametrize(
    "fn", [EdgeFunction.sine(2.0, 1.5), EdgeFunction.cubic(0.2), EdgeFunction.tanh(1.3), EdgeFunction.linear(0.8)]
)
def test_sample_by_blocks_equals_the_column_at_a_time_reference(fn, n):
    # elementwise edge functions see each row alone, so building every block
    # through the whole model changes no bit
    spec = _multi_parent_dag(fn)
    assert np.array_equal(sample(spec, n, seed=12).values, oracles.sample(spec, n, 12))


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10001])
def test_sample_dictionary_combination_edges_move_only_by_rounding(n):
    # a dictionary-combination edge is a BLAS matrix-vector product, whose
    # rounding may depend on the length it runs over: reruns are identical and
    # the block-by-block values stay within 1e-15 of the whole-column ones
    fn = EdgeFunction.dictionary_combination(Dictionary(CUBIC_B_SPLINE, 6, (-4.0, 4.0)), [0.5, -1.0, 2.0, 0.3, -0.7, 1.1])
    spec = _multi_parent_dag(fn)
    got = sample(spec, n, seed=13).values
    assert np.array_equal(got, sample(spec, n, seed=13).values)
    ref = oracles.sample(spec, n, 13)
    assert np.max(np.abs(got - ref)) <= 1e-15 * max(1.0, float(np.max(np.abs(ref))))


def topological(spec):
    return {pi for pi in itertools.permutations(range(spec.p)) if in_pi0(pi, spec)}


def test_in_pi0_single_edge():
    spec = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.linear(1.0)}, noise_sd=(1.0, 1.0))
    assert topological(spec) == {(0, 1)}


def test_in_pi0_empty_dag():
    spec = SemSpec(p=2, order=(0, 1), edges={}, noise_sd=(1.0, 1.0))
    assert topological(spec) == {(0, 1), (1, 0)}


def test_topological_orders_collider():
    spec = SemSpec(
        p=3,
        order=(0, 1, 2),
        edges={(0, 2): EdgeFunction.linear(1.0), (1, 2): EdgeFunction.linear(1.0)},
        noise_sd=(1.0, 1.0, 1.0),
    )
    assert topological(spec) == {(0, 1, 2), (1, 0, 2)}


def test_in_pi0_matches_filter_on_random_dag():
    rng = np.random.default_rng(9)
    for _ in range(5):
        spec = oracles.random_dag(rng)
        got = topological(spec)
        assert got == set(oracles.topological_filter(spec))
        assert spec.order in got


def test_in_pi0_validates_permutation():
    spec = SemSpec(p=3, order=(0, 1, 2), edges={}, noise_sd=(1.0,) * 3)
    for bad in [(0, 1), (0, 1, 1), (0, 1, 3)]:
        with pytest.raises(UsageError):
            in_pi0(bad, spec)


def test_population_sigma_single_variable():
    spec = SemSpec(p=1, order=(0,), edges={}, noise_sd=(1.5,))
    out = population_sigma(spec, (0,), spline_class(), oracle_n=60_000, seed=2)
    assert abs(out.values[0] - 2.25) <= 0.08


def test_population_sigma_linear_chain_both_orders():
    # chain x2 = x1 + eps, both variances 1
    spec = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.linear(1.0)}, noise_sd=(1.0, 1.0))
    cls = spline_class(6, (-12.0, 12.0))
    fwd = population_sigma(spec, (0, 1), cls, oracle_n=120_000, seed=3)
    assert abs(fwd.values[0] - 1.0) <= 0.03
    assert abs(fwd.values[1] - 1.0) <= 0.03
    rev = population_sigma(spec, (1, 0), cls, oracle_n=120_000, seed=3)
    # slot 1 holds the raw variance of x2, slot 2 the Gaussian regression residual
    assert abs(rev.values[0] - 2.0) <= 0.05
    assert abs(rev.values[1] - oracles.bivariate_residual_variance(1.0, 2.0, 1.0)) <= 0.02


def test_population_sigma_takes_the_estimator_floor():
    # the class holds the edge function exactly, so the fit of x2 on x1 leaves
    # only rounding noise (about 1e-28); the population value is the floor
    pc = Dictionary(PIECEWISE_CONSTANT, 4, (-3.0, 3.0))
    edge = EdgeFunction.dictionary_combination(pc, (1.0, -2.0, 0.5, 3.0))
    spec = SemSpec(p=2, order=(0, 1), edges={(0, 1): edge}, noise_sd=(1.0, 1e-300))
    out = population_sigma(spec, (0, 1), ClassSpec(pc), oracle_n=2000, seed=3)
    x2 = sample(spec, 2000, 3).values[:, 1]
    assert out.values[1] == 1e-12 * np.mean(x2 * x2)
    assert out.floored == (False, True)
    assert abs(out.values[0] - 1.0) <= 0.1


def test_identifiability_gap_linear_chain_near_zero():
    spec = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.linear(1.0)}, noise_sd=(1.0, 1.0))
    gaps = [
        identifiability_gap(spec, spline_class(6, (-12.0, 12.0)), oracle_n=50_000, seed=(21, r)).gap
        for r in range(4)
    ]
    mean = float(np.mean(gaps))
    se = float(np.std(gaps, ddof=1) / math.sqrt(len(gaps)))
    assert abs(mean) <= max(3.0 * se, 1e-4)


def test_identifiability_gap_sine_chain_positive():
    spec = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.sine(2.0, 1.0)}, noise_sd=(1.0, 0.3))
    gap = identifiability_gap(spec, spline_class(6, (-5.0, 5.0)), oracle_n=50_000, seed=6).gap
    assert gap > 0.1


def test_identifiability_gap_sentinels():
    solo = SemSpec(p=1, order=(0,), edges={}, noise_sd=(1.0,))
    assert identifiability_gap(solo, spline_class(), oracle_n=1000, seed=0).gap == math.inf
    # no edges: every permutation is topological, so no wrong one exists
    free = SemSpec(p=2, order=(0, 1), edges={}, noise_sd=(1.0, 1.0))
    assert identifiability_gap(free, spline_class(), oracle_n=1000, seed=0).gap == math.inf
    # the p! table keeps its p <= 8 cap; the gap alone does not (see the p=12 test)
    big = SemSpec(p=9, order=tuple(range(9)), edges={}, noise_sd=(1.0,) * 9)
    with pytest.raises(CapacityError):
        identifiability_gap(big, spline_class(), oracle_n=1000, seed=0, return_table=True)


def test_identifiability_gap_table():
    spec = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.sine(2.0, 1.0)}, noise_sd=(1.0, 0.3))
    rep = identifiability_gap(spec, spline_class(6, (-5.0, 5.0)), oracle_n=20_000, seed=6, return_table=True)
    assert rep.gap > 0.0
    tab = rep.to_json()["table"]
    assert len(tab) == 2
    scores = [row["mean_log_sd_ratio"] for row in tab]
    assert scores == sorted(scores)
    flags = [row["topological"] for row in tab]
    assert any(flags) and not all(flags)


def test_identifiability_gap_builds_each_basis_block_once(monkeypatch):
    calls = []
    real = dictionary.basis_matrix

    def counting(d, x):
        calls.append(np.size(x))
        return real(d, x)

    for module in (dictionary, regress, semgen):
        monkeypatch.setattr(module, "basis_matrix", counting)
    edges = {(j, j + 1): EdgeFunction.sine(2.0, 1.5) for j in range(3)}
    spec = SemSpec(p=4, order=(0, 1, 2, 3), edges=edges, noise_sd=(1.0, 0.3, 0.3, 0.3))
    identifiability_gap(spec, spline_class(6, (-5.0, 5.0)), oracle_n=2_000, seed=6, return_table=True)
    # one 2-d call for every column of the oracle sample, shared by all 24 permutations
    assert calls == [spec.p * 2_000]


def test_identifiability_gap_is_the_least_wrong_score_of_the_table():
    rng = np.random.default_rng(61)
    cs = ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-4.0, 4.0)))
    sine = EdgeFunction.sine(2.0, 1.5)
    shapes = [
        {(j, j + 1): sine for j in range(p - 1)} for p in range(2, 7)  # chains
    ] + [
        {(0, 1): sine, (0, 2): sine, (0, 3): sine},  # fork
        {(0, 3): sine, (1, 3): sine, (2, 3): sine},  # collider
        {},
    ]
    specs = []
    for edges in shapes:
        p = 3 if not edges else 1 + max(j for e in edges for j in e)
        specs.append(SemSpec(p=p, order=tuple(range(p)), edges=edges, noise_sd=(1.0,) + (0.3,) * (p - 1)))
    specs += [oracles.random_dag(rng, 2, 7) for _ in range(4)]
    for seed, spec in enumerate(specs):
        rep = identifiability_gap(spec, cs, oracle_n=600, seed=seed, return_table=True)
        wrong = [row for row in rep.rows if not row["topological"]]
        if not wrong:
            assert not spec.edges and rep.gap == math.inf
            continue
        assert abs(rep.gap - wrong[0]["mean_log_sd_ratio"]) <= 1e-12
        # the search with one edge reversed finds the table's least wrong row
        fits = semgen._oracle_fits(spec, cs, 600, seed)
        orders = [fits.best_order([1 << j if v == k else 0 for v in range(spec.p)]) for k, j in spec.edges]
        assert wrong[0]["permutation"] in orders


def test_identifiability_gap_without_table_enumerates_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the gap alone must not enumerate permutations")

    calls = []
    real = regress.fit_span

    def counting(x, y, factor=None):
        calls.append(1)
        return real(x, y, factor)

    monkeypatch.setattr(semgen, "permutations", forbidden)
    monkeypatch.setattr(regress, "fit_span", counting)
    order = (2, 0, 3, 1)
    edges = {(k, j): EdgeFunction.sine(2.0, 1.5) for k, j in zip(order, order[1:])}
    spec = SemSpec(p=4, order=order, edges=edges, noise_sd=(1.0, 0.3, 0.3, 0.3))
    cs = spline_class(6, (-5.0, 5.0))
    rep = identifiability_gap(spec, cs, oracle_n=2_000, seed=6)
    # the one search per edge fits each of the p 2^(p-1) (variable, set) pairs once
    assert len(calls) == 4 * 2**3
    assert rep.rows == [] and rep.to_json()["table"] == []
    monkeypatch.undo()
    assert rep.gap == identifiability_gap(spec, cs, oracle_n=2_000, seed=6, return_table=True).gap


def test_identifiability_gap_runs_at_p12_without_its_table():
    p = 12
    edges = {(j, j + 1): EdgeFunction.sine(2.0, 1.5) for j in range(p - 1)}
    spec = SemSpec(p=p, order=tuple(range(p)), edges=edges, noise_sd=(1.0,) + (0.3,) * (p - 1))
    cs = ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-5.0, 5.0)))
    gap = identifiability_gap(spec, cs, oracle_n=400, seed=3).gap
    # a wrong order that swaps the first edge bounds the gap from above
    fits = semgen._oracle_fits(spec, cs, 400, 3)
    base = fits.along(spec.order)[0]
    swapped = (1, 0) + tuple(range(2, p))
    values = fits.along(swapped)[0]
    by_var = dict(zip(spec.order, base))
    bound = sum(0.5 * (math.log(values[i]) - math.log(by_var[v])) for i, v in enumerate(swapped)) / p
    assert 0.0 < gap <= bound
    # the table keeps its cap, and the gap stops at the exact search's guard,
    # both before any sampling
    with pytest.raises(CapacityError, match="p <= 8"):
        identifiability_gap(spec, cs, oracle_n=400, seed=3, return_table=True)
    wide = SemSpec(p=19, order=tuple(range(19)), edges={}, noise_sd=(1.0,) * 19)
    with pytest.raises(CapacityError, match=f"p <= {regress.EXACT_GUARD}"):
        identifiability_gap(wide, cs, oracle_n=10**9, seed=3)


def test_identifiability_gap_carries_floored_flags():
    # x2 = x1 up to noise of sd 1e-9: the spline span holds the line, so the
    # fit of either variable on the other reaches the variance floor
    cs = spline_class(6, (-8.0, 8.0))
    tied = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.linear(1.0)}, noise_sd=(1.0, 1e-9))
    rep = identifiability_gap(tied, cs, oracle_n=2_000, seed=5, return_table=True)
    assert rep.floored
    assert [row["floored"] for row in rep.rows] == [True, True]
    assert identifiability_gap(tied, cs, oracle_n=2_000, seed=5).floored
    sine = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.sine(2.0, 1.0)}, noise_sd=(1.0, 0.3))
    rep = identifiability_gap(sine, cs, oracle_n=2_000, seed=5, return_table=True)
    assert not rep.floored and not any(row["floored"] for row in rep.rows)
    assert rep.to_json()["floored"] is False
    assert [row["floored"] for row in rep.to_json()["table"]] == [False, False]


def test_edge_function_kinds():
    x = np.linspace(-3.0, 3.0, 7)
    assert np.allclose(EdgeFunction.sine(2.0, 1.5)(x), 2.0 * np.sin(1.5 * x))
    assert np.allclose(EdgeFunction.cubic(0.5)(x), 0.5 * x**3)
    assert np.allclose(EdgeFunction.tanh(2.0)(x), np.tanh(2.0 * x))
    assert np.allclose(EdgeFunction.linear(-1.25)(x), -1.25 * x)


@pytest.mark.parametrize(
    "fn",
    [
        EdgeFunction.sine(2.0, 1.5),
        EdgeFunction.cubic(0.5),
        EdgeFunction.tanh(2.0),
        EdgeFunction.linear(-1.25),
        EdgeFunction.dictionary_combination(Dictionary(CUBIC_B_SPLINE, 6, (-3.0, 3.0)), [0.5, -1.0, 0.25, 2.0, -0.75, 1.5]),
        EdgeFunction.dictionary_combination(Dictionary(TRIGONOMETRIC, 3, (-2.0, 2.0)), [0.5, -1.0, 0.25]),
    ],
    ids=lambda fn: fn.kind,
)
def test_edge_function_keeps_the_shape_of_x(fn):
    def one(v):
        return fn(np.array([v]))[0]

    assert np.shape(fn(0.3)) == () and fn(0.3) == one(0.3)
    x = np.array([[0.3, -1.7], [2.4, 0.05]])
    got = fn(x)
    assert got.shape == (2, 2)
    # a combination sums its basis terms in a matrix product, whose rounding
    # may differ by the number of points
    scale = np.abs(fn.coefficients).sum() if fn.coefficients else 0.0
    for idx in np.ndindex(x.shape):
        assert abs(got[idx] - one(x[idx])) <= 4 * np.finfo(float).eps * scale
    assert np.array_equal(got, fn(x.ravel()).reshape(x.shape))


def test_edge_function_dictionary_combination_bound():
    d = Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))
    coefs = np.array([0.5, -1.0, 0.25])
    fn = EdgeFunction.dictionary_combination(d, coefs)
    x = np.linspace(-10.0, 10.0, 101)
    assert np.max(np.abs(fn(x))) <= np.abs(coefs).sum() * d.sup_bound + 1e-12


def test_edge_function_validation():
    with pytest.raises(UsageError):
        EdgeFunction("sine", (1.0,))  # sine takes amplitude and frequency
    with pytest.raises(UsageError):
        EdgeFunction("nope", (1.0,))
    d = Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0))
    with pytest.raises(UsageError):
        EdgeFunction.dictionary_combination(d, [1.0, 2.0])  # wrong coefficient count


def test_sem_spec_validation():
    with pytest.raises(UsageError):
        SemSpec(p=2, order=(0, 0), edges={}, noise_sd=(1.0, 1.0))
    with pytest.raises(UsageError):
        SemSpec(p=2, order=(0, 1), edges={}, noise_sd=(1.0, 0.0))
    with pytest.raises(UsageError, match="cycle"):
        SemSpec(p=2, order=(0, 1), edges={(1, 0): EdgeFunction.linear(1.0)}, noise_sd=(1.0, 1.0))


def test_sem_spec_json_round_trip():
    spec = SemSpec(
        p=3,
        order=(1, 0, 2),
        edges={(1, 0): EdgeFunction.sine(1.0, 2.0), (0, 2): EdgeFunction.cubic(0.3)},
        noise_sd=(1.0, 0.5, 2.0),
    )
    cfg = spec.to_json()
    assert cfg["order"] == [2, 1, 3]  # external indices are 1-based
    back = SemSpec.from_json(cfg)
    assert back.order == spec.order
    assert back.noise_sd == spec.noise_sd
    assert set(back.edges) == set(spec.edges)
    data_a = sample(spec, 100, seed=1)
    data_b = sample(back, 100, seed=1)
    assert np.array_equal(data_a.values, data_b.values)


def test_data_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    data = DataMatrix(rng.standard_normal((40, 3)) * 1e6)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2,x3"
    assert "\r" not in text
    back = DataMatrix.from_csv(path)
    assert np.array_equal(back.values, data.values)


def test_negative_seed_is_usage_error():
    for seed in (-1, (3, -1), [0, -2]):
        with pytest.raises(UsageError, match="seed"):
            derived_rng(seed)
    spec = SemSpec(p=1, order=(0,), edges={}, noise_sd=(1.0,))
    with pytest.raises(UsageError, match="seed"):
        sample(spec, 10, -1)


def test_non_integer_seed_is_usage_error():
    # 2.5 used to draw seed 2's stream and True seed 1's
    for seed in (2.5, True, (1, 2.5)):
        with pytest.raises(UsageError, match="seed"):
            derived_rng(seed)
    spec = SemSpec(p=1, order=(0,), edges={}, noise_sd=(1.0,))
    with pytest.raises(UsageError, match="seed"):
        sample(spec, 10, (1, 2.5))
    assert derived_rng(np.int64(3)).random() == derived_rng(3).random()
    assert np.array_equal(sample(spec, 10, (np.int32(1), 2)).values, sample(spec, 10, (1, 2)).values)


@pytest.mark.parametrize("cell", ["1.5", " -2e-3 ", "1_000", "nan", "-Infinity", "1e400", "\u0661\u0662", "abc", "", "0x10"])
def test_data_matrix_reads_each_cell_as_float_does(tmp_path, cell):
    # the CSV is converted in one call; each cell reads as float() reads it,
    # and a cell float() refuses is a usage error naming the file and the cell
    path = tmp_path / "cells.csv"
    path.write_text(f"x1,x2\n0.25,{cell}\n", encoding="utf-8")
    try:
        want = float(cell)
    except ValueError as exc:
        with pytest.raises(UsageError) as err:
            DataMatrix.from_csv(path)
        assert str(err.value) == f"{path}: non-numeric cell ({exc})"
        return
    if not math.isfinite(want):
        with pytest.raises(UsageError, match="non-finite"):
            DataMatrix.from_csv(path)
        return
    assert DataMatrix.from_csv(path).values.tolist() == [[0.25, want]]


def test_data_matrix_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(UsageError):
        DataMatrix.from_csv(path)
