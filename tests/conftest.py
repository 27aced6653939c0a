import os
import subprocess
import sys
from pathlib import Path

import pytest

# make the sibling oracles module importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def cli_child():
    """Run ``semorder`` with `argv` in a child process under `blas_threads` OpenBLAS threads.

    The child imports the package from the same tree as the tests; a failed
    run fails the test with the child's stderr.
    """
    import semorder

    src = str(Path(semorder.__file__).resolve().parents[1])

    def run(argv, blas_threads):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(blas_threads)}
        cmd = [sys.executable, "-m", "semorder.cli", *argv]
        res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr

    return run
