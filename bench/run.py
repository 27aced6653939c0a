"""End-to-end benchmark of the ``semorder`` command-line program.

Usage (from the repository root)::

    python3 bench/run.py --workload order-exact --seed 0 --seconds 20 --trace 0

Each workload runs as real CLI processes, one after another, with the CLI's
own defaults: no ``--threads`` and no BLAS thread override.  The run makes
its inputs from ``--seed``, repeats the CLI for about ``--seconds`` (at
least twice, so that reruns can be compared), checks every output and
prints, as its last line, one JSON object with the metrics that
``BENCHMARK.json`` declares.  With ``--trace 1`` traced and untraced
processes alternate and the per-layer metrics are printed instead.  Lines
before the last give the machine, each process's figures and any failed
check.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 2
IMPORT_PROBES = 3
# a run must end within 180 s: stop starting processes that would cross this
DEADLINE_S = 165.0
CHILD_TIMEOUT_S = 120.0


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


class Process:
    """One finished CLI process: its figures and what went wrong."""

    def __init__(self, out: Path, traced: bool):
        self.out = out
        self.traced = traced
        self.wall_s = math.nan
        self.peak_rss_mb = math.nan
        self.timing: dict = {}
        self.trace: dict | None = None
        self.import_times: dict[str, float] = {}
        self.problems: list[str] = []

    def row(self) -> dict:
        return {
            "out": self.out.name,
            "traced": self.traced,
            "wall_s": self.wall_s,
            "setup_s": self.timing.get("setup_s"),
            "run_s": self.timing.get("run_s"),
            "peak_rss_mb": self.peak_rss_mb,
            "problems": self.problems,
        }


def parse_import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` lines."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative) / 1e6
    return out


def spawn(argv: list[str], out: Path, timeout: float, traced: bool = False) -> Process:
    """Run the CLI with `argv` writing into `out`; wait for it and time it."""
    proc_info = Process(out, traced)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    timing_path = out.with_name(out.name + ".timing.json")
    trace_path = out.with_name(out.name + ".trace.json")
    log_path = out.with_name(out.name + ".stderr.txt")
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "child.py"), str(SRC), str(timing_path)]
    if traced:
        cmd += ["--trace", str(trace_path)]
    cmd += ["--", *argv, "--out", str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, child.kill)
        killer.start()
        try:
            # wait4 rather than Popen.wait: it reports the child's own rusage
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        proc_info.wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # tells Popen the child is reaped
    # ru_maxrss is in KiB on Linux
    proc_info.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
    stderr = log_path.read_text(encoding="utf-8", errors="replace")
    if child.returncode != 0:
        tail = " | ".join(line for line in stderr.splitlines()[-3:] if not line.startswith("import time:"))
        reason = "timed out" if child.returncode < 0 and proc_info.wall_s >= timeout else f"exit {child.returncode}"
        proc_info.problems.append(f"{reason}: {tail}")
        return proc_info
    proc_info.timing = json.loads(timing_path.read_text(encoding="utf-8"))
    if traced:
        proc_info.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        proc_info.import_times = parse_import_times(stderr)
    return proc_info


def output_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def self_check(workload, counters: dict[str, float]) -> list[str]:
    """Traced counts that must repeat exactly on this workload."""
    problems = []
    for name, expected in workload.counts.items():
        if counters[name] != expected:
            problems.append(f"self-check: {name} = {counters[name]}, expected {expected}")
    for name in workload.bypassed:
        if counters[name] != 0:
            problems.append(f"self-check: {name} = {counters[name]} on a workload that bypasses it")
    return problems


def median(values) -> float:
    """Median, or 0.0 when no process succeeded (the run then reports incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semorder" / "cli.py").is_file():
        print(f"error: no semorder source under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    argv_cli = workload.prepare(work / "inputs")

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    # untimed processes: import-only ones that add samples to setup_s, and
    # whatever reference the workload's checks compare against
    probes = [spawn(["--help"], work / f"import-{i}", min(CHILD_TIMEOUT_S, remaining())) for i in range(IMPORT_PROBES)]
    reference = None
    ref_argv = workload.reference_argv(work / "inputs")
    if ref_argv is not None:
        probes.append(spawn(ref_argv, work / "reference", min(CHILD_TIMEOUT_S, remaining())))
        reference = probes[-1].out

    runs: list[Process] = []
    first_outputs = None
    timed_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        p = spawn(argv_cli, work / f"out-{len(runs):03d}", min(CHILD_TIMEOUT_S, remaining()), traced)
        runs.append(p)
        if not p.problems:
            try:
                p.problems += workload.check(p.out, reference)
            except Exception as exc:  # a malformed output fails this process, not the run
                p.problems.append(f"unreadable output: {exc!r}")
        if not p.problems:
            files = output_files(p.out)
            if first_outputs is None:
                first_outputs = files
            elif files != first_outputs:
                p.problems.append("output differs from the first process of this run")
        if p.trace is not None:
            p.problems += self_check(workload, tracing.layer_counters(p.trace))
        walls = [q.wall_s for q in runs]
        next_end = time.perf_counter() - timed_start + statistics.median(walls)
        if (len(runs) >= MIN_REPS and next_end > args.seconds) or remaining() < 1.5 * max(walls):
            break

    facts["loadavg_end"] = os.getloadavg()
    procs = probes + runs
    failed = sum(1 for p in procs if p.problems)
    ok = [p for p in runs if not p.problems]
    untraced = [p for p in ok if not p.traced]

    values: dict[str, float] = {
        "wall_s": median(p.wall_s for p in untraced),
        "setup_s": median(p.timing["setup_s"] for p in probes + untraced if not p.problems),
        "run_s": median(p.timing["run_s"] for p in untraced),
        "peak_rss_mb": median(p.peak_rss_mb for p in untraced),
        "pass_rate": (len(procs) - failed) / len(procs),
    }
    traced_ok = [p for p in ok if p.traced]
    if args.trace:
        counters = [tracing.layer_counters(p.trace) for p in traced_ok]
        for name in counters[0] if counters else ():
            values[name] = median(c[name] for c in counters)
        for m in declared:
            if m["name"].startswith("setup.") and m["name"].endswith("_s"):
                module = m["name"][len("setup."):-len("_s")]
                values[m["name"]] = median(p.import_times.get(module, 0.0) for p in traced_ok)
        values["trace.overhead_s"] = median(p.timing["run_s"] for p in traced_ok) - values["run_s"]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": facts,
        "processes": [p.row() for p in procs],
    }
    (work / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"machine": facts}))
    for p in procs:
        print(json.dumps(p.row()))
    correct = failed == 0 and bool(untraced) and (bool(traced_ok) or not args.trace)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}")
        correct = False
    print(json.dumps({"correct": correct, "attempted": len(procs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
