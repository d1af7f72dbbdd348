"""The pipeline benchmark's tracer still finds what it wraps in tracefem.

pipebench/spans.py wraps tracefem's classes and functions by name from
outside the package; a rename in the library would break a traced
benchmark run without failing any library test.  This runs one traced
benchmark process on a small study and checks that it completes and
that the counters of the volume rule and the basis kernel are filled.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_process_runs_a_small_study(tmp_path):
    config = {"benchmark": "sphere", "k": 2, "base_n": 8, "levels": 1, "stab": "normal_volume"}
    spec = {"mode": "trace", "spawned": time.monotonic(), "config": dict(config, out=str(tmp_path))}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "pipebench" / "proc.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["layers"]["assembly.volume_points"] > 0
    assert result["layers"]["kernel.eval_basis_points"] > 0
