"""Nonlinear Gaussian structural equations models: specification and sampling.

A model is a DAG over p variables given by a generating order and a map of
edges to 1-d functions; each variable is the sum of its parents' edge
functions plus independent centered Gaussian noise.  The module also
estimates, by a large oracle sample, the population residual variances a
regression class attains under an arbitrary ordering, and from those the
identifiability gap separating the true orders from all others.  Both read
the sigma table of one :class:`semorder.regress.ConditionalFits` engine over
the oracle sample, with the estimator's variance floor.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from ._rng import derived_rng
from .dictionary import Dictionary, basis_matrix
from .errors import REQUIRED, CapacityError, UsageError, as_count, as_number, as_tuple, read_keys
from .regress import EXACT_GUARD, ClassSpec, ConditionalFits

SAMPLE_BLOCK = 4096

__all__ = [
    "EdgeFunction",
    "SemSpec",
    "DataMatrix",
    "PopulationSigmas",
    "GapReport",
    "sample",
    "in_pi0",
    "population_sigma",
    "identifiability_gap",
    "SAMPLE_BLOCK",
]

_EDGE_KINDS = ("sine", "cubic", "tanh", "linear", "dictionary-combination")

# config keys: an edge function's own, then those of a sem edge and of a
# misspec truth, which add theirs to it
FUNCTION_KEYS = {"kind": REQUIRED, "params": []}
EDGE_KEYS = {**FUNCTION_KEYS, "from": REQUIRED, "to": REQUIRED}
TRUTH_KEYS = {**FUNCTION_KEYS, "noise_sd": REQUIRED}
COMBINATION_KEYS = {"dictionary": REQUIRED, "coefficients": REQUIRED}
SEM_KEYS = {"p": REQUIRED, "order": REQUIRED, "noise_sd": REQUIRED, "edges": []}


@dataclass(frozen=True)
class EdgeFunction:
    """A 1-d edge function of one of five parametric kinds.

    sine(amplitude, frequency), cubic(scale), tanh(scale), linear(slope), or
    a fixed linear combination of dictionary basis functions.  All kinds are
    finite on the whole real line; the dictionary combination is bounded by
    the l1 norm of its coefficients.
    """

    kind: str
    params: tuple[float, ...] = ()
    dictionary: Dictionary | None = None
    coefficients: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _EDGE_KINDS:
            raise UsageError(f"unknown edge kind {self.kind!r}; expected one of {_EDGE_KINDS}")
        object.__setattr__(self, "params", as_tuple(self.params, "edge params"))
        if self.kind == "dictionary-combination":
            if self.dictionary is None or self.coefficients is None:
                raise UsageError("dictionary-combination needs a dictionary and coefficients")
            coefs = as_tuple(self.coefficients, "edge coefficients")
            if len(coefs) != self.dictionary.size:
                raise UsageError(
                    f"coefficient count {len(coefs)} does not match dictionary size {self.dictionary.size}"
                )
            object.__setattr__(self, "coefficients", coefs)
        else:
            if self.dictionary is not None or self.coefficients is not None:
                raise UsageError(f"{self.kind} takes scalar params only")
            want = 2 if self.kind == "sine" else 1
            if len(self.params) != want:
                raise UsageError(f"{self.kind} takes {want} parameter(s), got {len(self.params)}")

    @classmethod
    def sine(cls, amplitude: float, frequency: float) -> "EdgeFunction":
        return cls("sine", (amplitude, frequency))

    @classmethod
    def cubic(cls, scale: float) -> "EdgeFunction":
        return cls("cubic", (scale,))

    @classmethod
    def tanh(cls, scale: float) -> "EdgeFunction":
        return cls("tanh", (scale,))

    @classmethod
    def linear(cls, slope: float) -> "EdgeFunction":
        return cls("linear", (slope,))

    @classmethod
    def dictionary_combination(cls, dictionary: Dictionary, coefficients) -> "EdgeFunction":
        return cls("dictionary-combination", (), dictionary, coefficients)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "sine":
            amp, freq = self.params
            return amp * np.sin(freq * x)
        if self.kind == "cubic":
            return self.params[0] * x**3
        if self.kind == "tanh":
            return np.tanh(self.params[0] * x)
        if self.kind == "linear":
            return self.params[0] * x
        return (basis_matrix(self.dictionary, x.reshape(-1)) @ np.asarray(self.coefficients)).reshape(x.shape)

    def to_config(self) -> dict:
        if self.kind == "dictionary-combination":
            return {
                "kind": self.kind,
                "params": {
                    "dictionary": self.dictionary.to_config(),
                    "coefficients": list(self.coefficients),
                },
            }
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_config(cls, cfg: dict, path: str = "edge", keys: dict = FUNCTION_KEYS) -> "EdgeFunction":
        """The function of config object `cfg`, which takes `keys`: a sem edge's or a truth's add theirs.

        :func:`semorder.errors.read_keys` names `path` on a key fault.
        """
        c = read_keys(cfg, path, keys)
        if c["kind"] != "dictionary-combination":
            return cls(c["kind"], c["params"])
        params = read_keys(c["params"], f"{path}.params", COMBINATION_KEYS)
        dictionary = Dictionary.from_config(params["dictionary"], f"{path}.params.dictionary")
        return cls.dictionary_combination(dictionary, params["coefficients"])


@dataclass(frozen=True)
class SemSpec:
    """Structure of a nonlinear Gaussian SEM.

    `order` is the generating permutation (0-based variable indices), `edges`
    maps (source, target) pairs to edge functions where every source must
    strictly precede its target in the order, and `noise_sd` gives the
    positive noise standard deviation of each variable.
    """

    p: int
    order: tuple[int, ...]
    edges: dict[tuple[int, int], EdgeFunction]
    noise_sd: tuple[float, ...]

    def __post_init__(self):
        p = as_count(self.p, "sem entry 'p'")
        order = as_tuple(self.order, "sem entry 'order'", int)
        if sorted(order) != list(range(p)):
            raise UsageError(f"order must be a permutation of 0..{p - 1}, got {order!r}")
        sds = as_tuple(self.noise_sd, "sem entry 'noise_sd'")
        if len(sds) != p or any(not (s > 0) for s in sds):
            raise UsageError(f"noise_sd must be {p} positive reals, got {self.noise_sd!r}")
        pos = {v: i for i, v in enumerate(order)}
        edges = {}
        if not isinstance(self.edges, dict):
            raise UsageError(f"edges must be a dict of (source, target) pairs, got {self.edges!r}")
        for key, fn in self.edges.items():
            ends = as_tuple(key, "edge endpoint", int)
            if len(ends) != 2:
                raise UsageError(f"edge key must be a (source, target) pair, got {key!r}")
            k, j = ends
            # error messages name edges 1-based, matching the config convention
            if not (0 <= k < p and 0 <= j < p) or k == j:
                raise UsageError(f"edge {k + 1}->{j + 1} is out of range or a self-loop")
            if pos[k] >= pos[j]:
                raise UsageError(f"edge {k + 1}->{j + 1} violates the generating order (cycle)")
            if not isinstance(fn, EdgeFunction):
                raise UsageError(f"edge {k + 1}->{j + 1} must map to an EdgeFunction")
            edges[(k, j)] = fn
        for name, value in (("p", p), ("order", order), ("noise_sd", sds), ("edges", edges)):
            object.__setattr__(self, name, value)

    def parents(self, j: int) -> list[int]:
        return sorted(k for (k, t) in self.edges if t == j)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "order": [v + 1 for v in self.order],
            "edges": [
                {"from": k + 1, "to": j + 1, **fn.to_config()}
                for (k, j), fn in sorted(self.edges.items())
            ],
            "noise_sd": list(self.noise_sd),
        }

    @classmethod
    def from_json(cls, cfg: dict, path: str = "sem") -> "SemSpec":
        """The model of config object `cfg`, variables 1-based as in :meth:`to_json`.

        :func:`semorder.errors.read_keys` names `path` on a key fault.
        """
        c = read_keys(cfg, path, SEM_KEYS)
        if not isinstance(c["edges"], list):
            raise UsageError(f"sem entry 'edges' must be a list, got {c['edges']!r}")
        edges = {}
        for i, e in enumerate(c["edges"]):
            fn = EdgeFunction.from_config(e, f"{path}.edges[{i}]", EDGE_KEYS)
            key = tuple(as_number(e[end], f"edge entry {end!r}", int) - 1 for end in ("from", "to"))
            if key in edges:
                raise UsageError(f"edge {key[0] + 1}->{key[1] + 1} is listed twice")
            edges[key] = fn
        order = tuple(v - 1 for v in as_tuple(c["order"], "sem entry 'order'", int))
        return cls(p=c["p"], order=order, edges=edges, noise_sd=c["noise_sd"])


@dataclass
class DataMatrix:
    """An n x p matrix of finite observations, one column per variable."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise UsageError(f"data must be a nonempty 2-d matrix, got shape {self.values.shape}")
        bad = ~np.isfinite(self.values)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise UsageError(
                f"non-finite value {float(self.values[row, col])} in column x{col + 1} (data row {row + 1})"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"x{j + 1}" for j in range(self.p)])
            for row in self.values:
                writer.writerow([format(v, ".17g") for v in row])

    @classmethod
    def from_csv(cls, path) -> "DataMatrix":
        """Read a UTF-8 CSV with header x1..xp; :class:`UsageError` naming `path` on any fault."""
        try:
            with open(path, "r", newline="", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read data file {path}: {exc}") from exc
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"{path}: empty file") from None
        expected = [f"x{j + 1}" for j in range(len(header))]
        if header != expected:
            raise UsageError(f"{path}: header must be x1..x{len(header)}, got {header!r}")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise UsageError(f"{path}: line {reader.line_num} has {len(row)} cells, expected {len(header)}")
            rows.append(row)
        if not rows:
            raise UsageError(f"{path}: no data rows")
        try:
            values = np.array(rows, dtype=np.float64)  # each cell read as float() reads it
        except ValueError as exc:
            raise UsageError(f"{path}: non-numeric cell ({exc})") from exc
        try:
            return cls(values=values)
        except UsageError as exc:
            raise UsageError(f"{path}: {exc}") from None


def sample(spec: SemSpec, n: int, seed) -> DataMatrix:
    """Draw n iid rows from the model.

    Rows are made in fixed-size blocks of SAMPLE_BLOCK rows, each from its own
    counter-based stream derived from (seed, block index): a block's noise is
    drawn at once, and its rows are built through the whole model in the
    model order, each variable the sum of its parents' edge functions plus
    N(0, sd^2) noise.  A row depends only on its block's stream, so output is
    bit-identical for the same (spec, n, seed) regardless of scheduling, and
    blocks could be filled in parallel.
    """
    n = as_count(n, "n")
    x = np.empty((n, spec.p))
    for b, start in enumerate(range(0, n, SAMPLE_BLOCK)):
        block = x[start : start + SAMPLE_BLOCK]
        eps = derived_rng(seed, b).standard_normal(block.shape)
        for pos, j in enumerate(spec.order):
            col = spec.noise_sd[j] * eps[:, pos]
            for k in spec.parents(j):
                col = col + spec.edges[(k, j)](block[:, k])
            block[:, j] = col
    return DataMatrix(values=x)


def _validate_perm(pi, p: int) -> tuple[int, ...]:
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(p)):
        raise UsageError(f"expected a permutation of 0..{p - 1}, got {pi!r}")
    return pi


def _parent_masks(spec: SemSpec) -> list[int]:
    """Bitmask of each variable's parents: v may follow a placed set only if it holds them all."""
    masks = [0] * spec.p
    for (k, j) in spec.edges:
        masks[j] |= 1 << k
    return masks


def _respects(pi, parents: list[int]) -> bool:
    placed = 0
    for v in pi:
        if parents[v] & ~placed:
            return False
        placed |= 1 << v
    return True


def in_pi0(pi, spec: SemSpec) -> bool:
    """Whether every edge of the generating DAG respects the permutation."""
    return _respects(_validate_perm(pi, spec.p), _parent_masks(spec))


@dataclass
class PopulationSigmas:
    """Estimated residual variances along one ordering, with floored and degeneracy flags."""

    values: np.ndarray
    floored: tuple[bool, ...]
    degenerate: tuple[bool, ...]
    order: tuple[int, ...]


def _oracle_fits(spec: SemSpec, class_spec: ClassSpec, oracle_n: int, seed) -> ConditionalFits:
    """The fit engine over a fresh oracle sample of the model."""
    oracle_n = as_count(oracle_n, "oracle_n")
    min_n = 10 * spec.p * class_spec.dictionary.size
    if oracle_n < min_n:
        raise UsageError(f"oracle_n={oracle_n} too small; need at least 10*p*N = {min_n}")
    return ConditionalFits(sample(spec, oracle_n, seed).values, class_spec)


def population_sigma(
    spec: SemSpec,
    pi,
    class_spec: ClassSpec,
    oracle_n: int = 200_000,
    seed: int = 0,
) -> PopulationSigmas:
    """Residual variances of the class regressions along an ordering.

    Position j regresses the j-th variable of `pi` on all earlier ones over a
    fresh oracle sample of size `oracle_n`; the first position gets the empty
    predictor set.  Values approximate the population quantities at
    Monte-Carlo accuracy O(oracle_n^-1/2).  Values carry the estimator's
    variance floor, relative to the oracle mean square of each variable, and
    positions at the floor are flagged ``floored``.  Designs whose numerical
    rank is below the class span's dimension fall back to minimum-norm fits
    and are flagged ``degenerate``.
    """
    pi = _validate_perm(pi, spec.p)
    values, floored, degenerate = _oracle_fits(spec, class_spec, oracle_n, seed).along(pi)
    return PopulationSigmas(values=values, floored=floored, degenerate=degenerate, order=pi)


@dataclass
class GapReport:
    """Identifiability gap, with the per-permutation score table when one was asked for.

    ``floored`` tells whether the gap rests on a floored sigma term: one of
    its wrong permutation or one of the generating order.  ``rows`` is empty
    without the table; each row carries the same flag for its own permutation.
    """

    gap: float
    order: tuple[int, ...]
    rows: list[dict] = field(default_factory=list)
    floored: bool = False

    def to_json(self) -> dict:
        return {
            "gap": self.gap,
            "floored": self.floored,
            "order": [v + 1 for v in self.order],
            "table": [
                {
                    "permutation": [v + 1 for v in r["permutation"]],
                    "mean_log_sd_ratio": r["mean_log_sd_ratio"],
                    "topological": r["topological"],
                    "floored": r["floored"],
                }
                for r in self.rows
            ],
        }


def identifiability_gap(
    spec: SemSpec,
    class_spec: ClassSpec,
    oracle_n: int = 200_000,
    seed: int = 0,
    return_table: bool = False,
) -> GapReport:
    """Smallest mean log residual-sd ratio separating wrong orders from true ones.

    For each permutation pi the score is ``(1/p) sum_j log(sigma_j(pi) /
    sigma_j(order))`` with both sides estimated by :func:`population_sigma`
    on one shared oracle sample.  The gap is the minimum over permutations
    that are not topological orders of the DAG; +inf when every permutation
    is topological (nothing to separate).  A wrong permutation places some
    edge's head first, so the gap is the least score of the exact order
    search (:meth:`ConditionalFits.best_order`) run with one edge reversed,
    once per edge.  The shared oracle sample leaves Monte-Carlo error of
    order oracle_n^-1/2.

    Returns a :class:`GapReport`: the gap, the generating order and whether
    the gap rests on a floored sigma term.  Its ``rows`` are empty unless
    ``return_table=True``, which scores all p! permutations (topological
    ones included, for near-tie inspection) and is limited to p <= 8.
    Without the table the gap runs up to the exact search's guard,
    :data:`semorder.regress.EXACT_GUARD`.
    """
    if return_table and spec.p > 8:
        raise CapacityError(f"the identifiability gap table is limited to p <= 8 (it has p! rows), got p={spec.p}")
    if spec.p > EXACT_GUARD:
        raise CapacityError(f"the identifiability gap is limited to p <= {EXACT_GUARD}, got p={spec.p}")
    fits = _oracle_fits(spec, class_spec, oracle_n, seed)
    reversed_edge = [[1 << j if v == k else 0 for v in range(spec.p)] for k, j in spec.edges]
    fits.fill(*reversed_edge)  # the searches share one walk of the subset tree
    base, base_floored, _ = fits.along(spec.order)
    base_by_var = {v: base[i] for i, v in enumerate(spec.order)}

    def score(pi) -> tuple[float, bool]:
        values, floored, _ = fits.along(pi)
        # log sd ratio = half the log variance ratio, matched per variable
        total = 0.0
        for pos, v in enumerate(pi):
            total += 0.5 * (math.log(values[pos]) - math.log(base_by_var[v]))
        return total / spec.p, any(floored) or any(base_floored)

    gap, floored = min((score(fits.best_order(before)) for before in reversed_edge), default=(math.inf, False))
    rows = []
    if return_table:
        rows = _gap_table(spec, fits, [math.log(base_by_var[v]) for v in range(spec.p)], any(base_floored))
    return GapReport(gap=gap, order=spec.order, rows=rows, floored=floored)


def _gap_table(spec: SemSpec, fits: ConditionalFits, base_log: list[float], base_floored: bool) -> list[dict]:
    """The rows of :func:`identifiability_gap`'s table: every permutation, sorted stably by its score.

    The sigma table is filled whole (:meth:`ConditionalFits.fill`), and
    its ``math.log`` values are put in a ``(p, 2^p)`` array beside its
    floored flags.  Each permutation's score is then p gathers from it,
    summed in position order and divided by p: bit for bit the sum of
    ``0.5 * (log sigma^2 - log base sigma^2)`` over its positions.
    """
    p = spec.p
    fits.fill([0] * p)
    filled = fits._var > 0
    logs = np.zeros((p, 1 << p))
    logs[filled] = list(map(math.log, fits._var[filled].tolist()))
    flags = fits._floored
    perms = np.array(list(permutations(range(p))))
    bits = 1 << perms
    placed = np.cumsum(bits, axis=1) - bits
    base = np.array(base_log)
    total = np.zeros(perms.shape[0])
    for pos in range(p):
        total += 0.5 * (logs[perms[:, pos], placed[:, pos]] - base[perms[:, pos]])
    floored = flags[perms, placed].any(axis=1) | base_floored
    parents = _parent_masks(spec)
    rows = [
        {"permutation": pi, "mean_log_sd_ratio": value, "topological": _respects(pi, parents), "floored": flag}
        for pi, value, flag in zip(permutations(range(p)), (total / p).tolist(), floored.tolist())
    ]
    rows.sort(key=lambda r: r["mean_log_sd_ratio"])
    return rows
