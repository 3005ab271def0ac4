"""The benchmark's traced `cli` workload runs against this checkout.

bench/tracer.py reads the library by name: module functions, each layer's
own forward and backward, protocol._transfer_pair and cli._HANDLERS.  A
rename there shows up here as a missing call or a failed workload, not
only when the benchmark is next run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# bench/run.py refuses to run with any of these set
THREAD_VARS = ("MEMLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_traced_cli_workload_is_correct():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--workload", "cli", "--seed", "0", "--seconds", "0",
                           "--trace", "1"],
                          capture_output=True, text=True, timeout=300, env=env,
                          cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
