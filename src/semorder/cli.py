"""Batch command-line front end.

Each subcommand reads a JSON config, runs one experiment, and writes its
outputs plus a manifest into the output directory.  Outputs are deterministic
functions of (config, seed): a rerun on one machine reproduces every file byte
for byte.

Exit codes: 0 success, 2 configuration or usage error or a size too large to
allocate, 3 numerical degeneracy or a failed linear-algebra routine.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from ._rng import derived_rng
from ._version import __version__
from .dictionary import TRIGONOMETRIC
from .empproc import (
    MomentPair,
    delta_n,
    entropy_bound_l1,
    inner_product_sup,
    j_integral_l1,
    lambda_min,
    rate_experiment,
    subgauss_product_sup,
    z_sup_ellipsoid,
    z_sup_l1,
)
from .errors import REQUIRED, CapacityError, DegeneracyError, UsageError, as_count, as_number, as_tuple, read_keys
from .order import EXACT_GUARD, estimate_order_exact, estimate_order_greedy
from .regress import ClassSpec, MisspecTruth, misspec_experiment
from .semgen import TRUTH_KEYS, DataMatrix, EdgeFunction, SemSpec, identifiability_gap, sample

__all__ = ["main"]


def _sanitize(obj):
    """Make a JSON tree strict: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell_text(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if v is None:
        return ""
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell_text(v) for v in row])


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg


def cmd_simulate(cfg: dict, seed: int, out: Path, self_test: bool) -> list[str]:
    c = read_keys(cfg, "", {"sem": REQUIRED, "n": REQUIRED})
    data = sample(SemSpec.from_json(c["sem"]), c["n"], seed)
    data.to_csv(out / "data.csv")
    return ["data.csv"]


def cmd_order(cfg: dict, seed: int, out: Path, self_test: bool) -> list[str]:
    # the data come from a CSV or from an inline model: a key of the other source is unknown
    if "data" in cfg:
        c = read_keys(cfg, "", {"data": REQUIRED, "class": REQUIRED, "method": "exact"})
    elif "sem" in cfg:
        c = read_keys(cfg, "", {"sem": REQUIRED, "n": REQUIRED, "class": REQUIRED, "method": "exact"})
    else:
        raise UsageError("order config needs either a 'data' path or an inline 'sem'")
    method = c["method"]
    if method not in ("exact", "greedy"):
        raise UsageError(f"method must be 'exact' or 'greedy', got {method!r}")
    class_spec = ClassSpec.from_config(c["class"])
    if "data" in c:
        if not isinstance(c["data"], str):  # open() reads an int as a file descriptor
            raise UsageError(f"data must be a path string, got {c['data']!r}")
        data = DataMatrix.from_csv(c["data"])
    else:
        data = sample(SemSpec.from_json(c["sem"]), c["n"], seed)
    if method == "greedy":
        est = estimate_order_greedy(data, class_spec)
    else:
        try:
            est = estimate_order_exact(data, class_spec)
        except CapacityError as exc:
            if data.p <= EXACT_GUARD:
                raise  # greedy also fits the last variable on all others, so it fails alike
            raise UsageError(f"{exc}; rerun with \"method\": \"greedy\"") from exc
    _write_json(out / "order.json", est.to_json())
    lines = [
        f"method: {est.method}",
        "order: " + " ".join(str(v + 1) for v in est.order),
        f"score: {est.score:.12g}",
        "",
        "position variable sigma_hat flags",
    ]
    for pos, v in enumerate(est.order):
        flags = []
        if pos in est.floored:
            flags.append("floored")
        if pos in est.degenerate:
            flags.append("degenerate")
        lines.append(
            f"{pos + 1:8d} {v + 1:8d} {est.sigma_hat[pos]:.12g} {','.join(flags) if flags else '-'}"
        )
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["order.json", "summary.txt"]


def cmd_rates(cfg: dict, seed: int, out: Path, self_test: bool) -> list[str]:
    # "restarts" is retired: an older config may still give it, and it is ignored
    keys = {"case": REQUIRED, "grid": REQUIRED, "reps": REQUIRED, "restarts": None}
    if cfg.get("case") in ("case3", "case4"):  # only the additive cases build a dictionary
        keys.update(family=TRIGONOMETRIC, domain=(0.0, 1.0))
    c = read_keys(cfg, "", keys)
    del c["restarts"]
    report = rate_experiment(**c, seed=seed, self_test=self_test)
    _write_json(out / "rates.json", report.to_json())
    header, rows = report.csv_rows()
    _write_csv(out / "rates.csv", header, rows)
    return ["rates.json", "rates.csv"]


def cmd_misspec(cfg: dict, seed: int, out: Path, self_test: bool) -> list[str]:
    c = read_keys(cfg, "", {"truth": REQUIRED, "class": REQUIRED, "n_grid": REQUIRED, "reps": REQUIRED, "oracle_n": 200_000})
    fn = EdgeFunction.from_config(c["truth"], "truth", TRUTH_KEYS)
    report = misspec_experiment(
        truth=MisspecTruth(mean=fn, noise_sd=c["truth"]["noise_sd"], label=fn.kind),
        class_spec=ClassSpec.from_config(c["class"]),
        n_grid=c["n_grid"],
        reps=c["reps"],
        oracle_n=c["oracle_n"],
        seed=seed,
    )
    _write_json(out / "misspec.json", report.to_json())
    header, rows = report.csv_rows()
    _write_csv(out / "misspec.csv", header, rows)
    return ["misspec.json", "misspec.csv"]


def cmd_gap(cfg: dict, seed: int, out: Path, self_test: bool) -> list[str]:
    c = read_keys(cfg, "", {"sem": REQUIRED, "class": REQUIRED, "oracle_n": 200_000, "replicates": 3})
    spec = SemSpec.from_json(c["sem"])
    class_spec = ClassSpec.from_config(c["class"])
    oracle_n = c["oracle_n"]  # identifiability_gap checks it before it samples
    replicates = as_count(c["replicates"], "replicates")
    gaps, floored, table = [], [], None
    for r in range(replicates):
        rep = identifiability_gap(spec, class_spec, oracle_n=oracle_n, seed=(seed, r), return_table=r == 0)
        if r == 0:  # only the first replicate's table is written; the others report the gap alone
            table = rep.to_json()["table"]
        gaps.append(rep.gap)
        floored.append(rep.floored)
    finite = [g for g in gaps if math.isfinite(g)]
    mean = float(np.mean(finite)) if len(finite) == len(gaps) else float("inf")
    se = float(np.std(finite, ddof=1) / math.sqrt(len(finite))) if len(finite) == len(gaps) and len(finite) >= 2 else None
    _write_json(
        out / "gap.json",
        {
            "gap_mean": mean,
            "gap_se": se,
            "gaps": gaps,
            "gaps_floored": floored,
            "replicates": replicates,
            "oracle_n": oracle_n,
            "order": [v + 1 for v in spec.order],
            "table": table,
        },
    )
    return ["gap.json"]


def cmd_empnorm(cfg: dict, seed: int, out: Path, self_test: bool) -> list[str]:
    # "restarts" is retired, as for rates
    c = read_keys(
        cfg, "", {"n": REQUIRED, "p": REQUIRED, "budget": 1.0, "u": 1.0, "noise_sd": 1.0, "response_coefficients": None, "restarts": None}
    )
    n = as_count(c["n"], "n")
    p = as_count(c["p"], "p")
    if p > n:
        raise UsageError(f"need p <= n, got p={p}, n={n}")
    budget = as_number(c["budget"], "budget")
    if not (budget > 0):
        raise UsageError("budget must be positive")
    u = as_number(c["u"], "u")
    noise_sd = as_number(c["noise_sd"], "noise_sd")
    w = c["response_coefficients"]
    w = np.ones(p) if w is None else np.array(as_tuple(w, "response_coefficients"))
    if w.shape != (p,):
        raise UsageError(f"response_coefficients must be a list of p={p} numbers, got {c['response_coefficients']!r}")

    rng = derived_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, p))
    y = x @ w + noise_sd * rng.standard_normal(n)
    sigma = np.eye(p) / 3.0
    sigma_hat = sigma if self_test else x.T @ x / n
    mp = MomentPair(sigma_hat, sigma)
    z_ell = z_sup_ellipsoid(mp)
    z_l1 = z_sup_l1(mp, budget)
    d_f = (p + 1) // 2
    if p >= 2:
        inner = inner_product_sup(
            sigma_hat[:d_f, d_f:], sigma[:d_f, d_f:],
            sigma[:d_f, :d_f], sigma[d_f:, d_f:], 1.0, 1.0,
        )
    else:
        inner = None
    m = sigma @ w
    sub = 0.0 if self_test else subgauss_product_sup(x, y, sigma, m)
    k0 = float(np.sqrt(np.mean(y * y)))
    # p=1 makes delta_n degenerate (log p = 0); keep the 0 it returns, drop the warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        dn = delta_n(1.0, k0, p, n, lambda_min(sigma))
    _write_json(
        out / "empnorm.json",
        {
            "n": n,
            "p": p,
            "budget": budget,
            "u": u,
            "self_test": self_test,
            "z_sup_ellipsoid": z_ell,
            "z_sup_l1": z_l1,
            "inner_product_sup": inner,
            "subgauss_product_sup": sub,
            "delta_n": dn,
            "k0": k0,
            "entropy_bound_l1": entropy_bound_l1(u, p, n, 1.0, budget),
            "j_integral_l1": j_integral_l1(p, n, 1.0, budget),
        },
    )
    return ["empnorm.json"]


_COMMANDS = {
    "simulate": cmd_simulate,
    "order": cmd_order,
    "rates": cmd_rates,
    "misspec": cmd_misspec,
    "gap": cmd_gap,
    "empnorm": cmd_empnorm,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semorder",
        description="Causal order estimation and empirical-norm convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "draw a dataset from a structural equations model"),
        ("order", "estimate the causal order of a dataset"),
        ("rates", "Monte-Carlo convergence rates of the norm-gap statistic"),
        ("misspec", "misspecified least-squares convergence experiment"),
        ("gap", "identifiability gap of a model under a regression class"),
        ("empnorm", "one-shot empirical-norm statistics on a simulated design"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON config")
        sp.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
        sp.add_argument("--out", required=True, help="output directory (created if missing)")
        if name in ("rates", "empnorm"):
            sp.add_argument(
                "--self-test",
                action="store_true",
                help="replace empirical moments by population ones; all suprema must be 0",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    self_test = bool(getattr(args, "self_test", False))
    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {out}: {exc}") from exc
        outputs = _COMMANDS[args.command](cfg, args.seed, out, self_test)
        manifest = {
            "command": args.command,
            "config": cfg,
            "outputs": outputs,
            "seed": args.seed,
            "version": __version__,
        }
        if args.command in ("rates", "empnorm"):
            manifest["self_test"] = self_test
        _write_json(out / "manifest.json", manifest)
    except (UsageError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory, reduce the sizes in the config ({exc})", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure in linear algebra: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
