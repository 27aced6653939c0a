"""Workload inputs and output checks for the semorder CLI benchmark.

Each workload turns the benchmark seed into the files one ``semorder`` CLI
command reads, names the command, and judges the files it writes.  Inputs are
made here with numpy alone, so a change to the package cannot change them.
Checks are properties that any numerically equivalent implementation keeps,
never byte equality with an earlier commit.
"""

from __future__ import annotations

import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np

SPLINE6 = {"dictionary": {"family": "cubic-b-spline", "size": 6, "domain": [-5.0, 5.0]}}
SINE = [2.0, 1.5]
ROOT_SD = 1.0
CHILD_SD = 0.3

# relative slack for comparing floats the CLI wrote against ones recomputed here
REL_TOL = 1e-9


def chain_order(seed: int, p: int) -> list[int]:
    """The generating order of a p-variable sine chain, 1-based, drawn from the seed."""
    rng = np.random.default_rng([seed, p])
    return [int(v) + 1 for v in rng.permutation(p)]


def chain_sem(order: list[int]) -> dict:
    """CLI ``sem`` entry of a sine chain along `order` (1-based)."""
    noise = [CHILD_SD] * len(order)
    noise[order[0] - 1] = ROOT_SD
    edges = [
        {"from": a, "to": b, "kind": "sine", "params": list(SINE)}
        for a, b in zip(order, order[1:])
    ]
    return {"p": len(order), "order": order, "edges": edges, "noise_sd": noise}


def chain_sample(order: list[int], n: int, seed: int) -> np.ndarray:
    """n rows of the sine chain along `order`, columns in variable order."""
    rng = np.random.default_rng([seed, n, len(order)])
    noise = rng.standard_normal((n, len(order)))
    x = np.empty((n, len(order)))
    prev = None
    for pos, v in enumerate(order):
        col = noise[:, pos] * (ROOT_SD if prev is None else CHILD_SD)
        if prev is not None:
            col = col + SINE[0] * np.sin(SINE[1] * x[:, prev - 1])
        x[:, v - 1] = col
        prev = v
    return x


def write_csv(path: Path, x: np.ndarray) -> None:
    lines = [",".join(f"x{j + 1}" for j in range(x.shape[1]))]
    lines += [",".join(format(v, ".17g") for v in row) for row in x]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Workload:
    """One CLI command over seed-derived inputs.

    ``prepare`` writes the inputs into `work` and returns the CLI arguments
    without ``--out``; ``reference_argv`` names an untimed CLI run whose
    output the checks compare against, if any; ``check`` lists what is wrong
    with an output directory.
    ``counts`` are the traced call counts that must repeat exactly, and
    ``bypassed`` the traced counters that must read 0.
    """

    name = ""
    counts: dict[str, float] = {}
    bypassed: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = int(seed)

    def prepare(self, work: Path) -> list[str]:
        raise NotImplementedError

    def reference_argv(self, work: Path) -> list[str] | None:
        return None

    def check(self, out: Path, reference: Path | None) -> list[str]:
        raise NotImplementedError


class OrderExact(Workload):
    """``semorder order``, exact DP, on a 9-variable sine chain read from CSV."""

    name = "order-exact"
    P = 9
    N = 1000
    # p * 2^(p-1) distinct (variable, predecessor set) fits
    counts = {"regress.fit_span.calls": P * 2 ** (P - 1), "order.fits_per_search": P * 2 ** (P - 1)}
    bypassed = (
        "semgen.sample.calls",
        "empproc.z_sup_l1.calls",
        "empproc.z_sup_ellipsoid.calls",
    )

    def prepare(self, work: Path) -> list[str]:
        self.order = chain_order(self.seed, self.P)
        write_csv(work / "data.csv", chain_sample(self.order, self.N, self.seed))
        cfg = _write_config(
            work / "order.json",
            {"data": str(work / "data.csv"), "class": SPLINE6, "method": "exact"},
        )
        return ["order", "--config", str(cfg)]

    def check(self, out: Path, reference: Path | None) -> list[str]:
        est = _read_json(out / "order.json")
        problems = []
        if est["order"] != self.order:
            problems.append(f"order {est['order']} is not the generating order {self.order}")
        sigmas = est["sigma_hat"]
        if len(sigmas) != self.P or not all(isinstance(s, float) and s > 0 for s in sigmas):
            problems.append(f"sigma_hat is not {self.P} positive floats: {sigmas}")
        elif not _close(est["score"], math.fsum(math.log(s) for s in sigmas)):
            problems.append(f"score {est['score']} is not the sum of log sigma_hat")
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        if f"order: {' '.join(map(str, est['order']))}" not in summary:
            problems.append("summary.txt does not state the order of order.json")
        return problems


class GapOracle(Workload):
    """``semorder gap`` of a 4-variable sine chain at a large oracle sample."""

    name = "gap-oracle"
    P = 4
    ORACLE_N = 50_000
    REPLICATES = 2
    # per replicate, each (variable, predecessor set) pair is fitted once
    counts = {"regress.fit_span.calls": REPLICATES * P * 2 ** (P - 1), "semgen.sample.calls": REPLICATES}
    bypassed = (
        "order.estimate_order_exact.calls",
        "empproc.z_sup_l1.calls",
        "empproc.z_sup_ellipsoid.calls",
    )

    def prepare(self, work: Path) -> list[str]:
        self.order = chain_order(self.seed, self.P)
        cfg = _write_config(
            work / "gap.json",
            {
                "sem": chain_sem(self.order),
                "class": SPLINE6,
                "oracle_n": self.ORACLE_N,
                "replicates": self.REPLICATES,
            },
        )
        return ["gap", "--config", str(cfg), "--seed", str(self.seed)]

    def check(self, out: Path, reference: Path | None) -> list[str]:
        rep = _read_json(out / "gap.json")
        problems = []
        gaps = rep["gaps"]
        if len(gaps) != self.REPLICATES or not all(isinstance(g, float) and 0 < g < math.inf for g in gaps):
            problems.append(f"gaps {gaps} are not {self.REPLICATES} finite positive values")
        mean = rep["gap_mean"]
        if not (isinstance(mean, float) and 0 < mean < math.inf):
            problems.append(f"gap_mean {mean!r} is not finite and positive")
        perms = sorted(tuple(r["permutation"]) for r in rep["table"])
        if perms != sorted(permutations(range(1, self.P + 1))):
            problems.append(f"table has {len(perms)} rows, not the {math.factorial(self.P)} permutations")
        if rep["order"] != self.order:
            problems.append(f"order {rep['order']} is not the generating order {self.order}")
        return problems


class RatesL1(Workload):
    """``semorder rates`` case3: the l1-budget norm-gap supremum over a small grid.

    The CLI seed is fixed instead of taken from the workload seed: the cost
    of one ``z_sup_l1`` call depends on its sample (1.1 s to 2.9 s at this
    size), so whole runs on different seeds differ by up to 70%, which would
    hide any change in the code.
    """

    name = "rates-l1"
    GRID = [{"n": n, "p": 2, "N": 3, "M": 1.0} for n in (500, 1000, 2000)]
    REPS = 2
    RESTARTS = 8
    CLI_SEED = 0
    counts = {"empproc.z_sup_l1.calls": len(GRID) * REPS}
    bypassed = (
        "regress.fit_span.calls",
        "order.estimate_order_exact.calls",
        "semgen.sample.calls",
        "empproc.z_sup_ellipsoid.calls",
    )

    def _config(self, case: str, grid: list[dict]) -> dict:
        cfg = {"case": case, "grid": grid, "reps": self.REPS, "family": "trigonometric"}
        if case == "case3":
            cfg["restarts"] = self.RESTARTS
        return cfg

    def prepare(self, work: Path) -> list[str]:
        cfg = _write_config(work / "rates.json", self._config("case3", self.GRID))
        return ["rates", "--config", str(cfg), "--seed", str(self.CLI_SEED)]

    def reference_argv(self, work: Path) -> list[str]:
        # case4 draws the same samples per (seed, cell, rep) and takes the
        # unbudgeted supremum, which bounds every case3 value from above
        grid = [{k: v for k, v in c.items() if k != "M"} for c in self.GRID]
        cfg = _write_config(work / "rates-ellipsoid.json", self._config("case4", grid))
        return ["rates", "--config", str(cfg), "--seed", str(self.CLI_SEED)]

    def check(self, out: Path, reference: Path | None) -> list[str]:
        cells = _read_json(out / "rates.json")["cells"]
        ellipsoid = _read_json(reference / "rates.json")["cells"]
        if len(cells) != len(self.GRID) or len(ellipsoid) != len(self.GRID):
            return [f"expected {len(self.GRID)} cells, got {len(cells)} and {len(ellipsoid)} (ellipsoid)"]
        problems = []
        for i, (cell, ell) in enumerate(zip(cells, ellipsoid)):
            if cell["skipped"] or ell["skipped"]:
                problems.append(f"cell {i} was skipped")
                continue
            vals, bounds = cell["values"], ell["values"]
            if len(vals) != self.REPS or len(bounds) != self.REPS:
                problems.append(f"cell {i} has {len(vals)} values, expected {self.REPS}")
                continue
            for r, (v, b) in enumerate(zip(vals, bounds)):
                if not (isinstance(v, float) and v > 0):
                    problems.append(f"cell {i} rep {r}: value {v!r} is not positive")
                elif v > b * (1.0 + REL_TOL):
                    problems.append(f"cell {i} rep {r}: l1 value {v} exceeds the ellipsoid value {b}")
        return problems


WORKLOADS = {w.name: w for w in (OrderExact, GapOracle, RatesL1)}
