"""Run one ``semorder`` CLI command in this process and record its timings.

Usage::

    python3 child.py SRC_DIR TIMING_JSON [--trace TRACE_JSON] -- <semorder arguments>

It imports ``semorder.cli`` from SRC_DIR, refusing any other copy, then calls
``main`` as the ``semorder`` console script does.  TIMING_JSON receives the
import time (``setup_s``) and the time inside ``main`` (``run_s``).  With
``--trace`` the package's layer functions are wrapped after the import and
the aggregated spans go to TRACE_JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    src, timing_path = Path(opts[0]).resolve(), Path(opts[1])
    trace_path = Path(opts[3]) if len(opts) == 4 and opts[2] == "--trace" else None

    t0 = time.perf_counter()
    import semorder.cli
    t1 = time.perf_counter()

    if src not in Path(semorder.cli.__file__).resolve().parents:
        print(f"semorder was imported from {semorder.cli.__file__}, not from {src}", file=sys.stderr)
        return 4
    recorder = None
    if trace_path is not None:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    t2 = time.perf_counter()
    try:
        code = semorder.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    t3 = time.perf_counter()

    timing = {"setup_s": t1 - t0, "run_s": t3 - t2}
    timing_path.write_text(json.dumps(timing) + "\n", encoding="utf-8")
    if recorder is not None:
        trace_path.write_text(json.dumps(recorder.summary()) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
