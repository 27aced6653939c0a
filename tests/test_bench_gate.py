"""The counts that the benchmark's traced self-check asserts, pinned in the test suite.

A traced ``bench/run.py`` run wraps ``regress.fit_span`` at its module
attribute and requires one call per sigma-table entry, and on ``rates-l1``
six calls of ``empproc.z_sup_l1`` at its binding site; a run whose counts
differ ends ``"correct": false``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from semorder import regress
from semorder.dictionary import CUBIC_B_SPLINE, Dictionary
from semorder.regress import ClassSpec
from semorder.semgen import EdgeFunction, SemSpec, identifiability_gap

ROOT = Path(__file__).resolve().parents[1]


def _chain(p):
    edges = {(j, j + 1): EdgeFunction("sine", (2.0, 1.5)) for j in range(p - 1)}
    return SemSpec(p=p, order=tuple(range(p)), edges=edges, noise_sd=(1.0,) + (0.3,) * (p - 1))


@pytest.mark.parametrize("p", [3, 4, 5])
def test_gap_table_fits_each_sigma_entry_once_per_replicate(monkeypatch, p):
    calls = [0]
    real = regress.fit_span

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(regress, "fit_span", counted)
    cs = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))
    for seed in (0, 1):
        calls[0] = 0
        rep = identifiability_gap(_chain(p), cs, oracle_n=2000, seed=seed, return_table=True)
        assert len(rep.rows) == [6, 24, 120][p - 3]
        assert calls[0] == p * 2 ** (p - 1)


@pytest.mark.parametrize("workload", ["order-exact", "gap-oracle", "rates-l1"])
def test_traced_benchmark_run_passes_its_self_check(workload):
    run = ROOT / "bench" / "run.py"
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", "1"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    lines = res.stdout.strip().splitlines()
    problems = [line for line in lines[:-1] if '"problems": [' in line and '"problems": []' not in line]
    assert json.loads(lines[-1])["correct"] is True, "\n".join(problems)
