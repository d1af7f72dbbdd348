"""The pipeline benchmark's tracer still finds what it wraps in tracefem.

pipebench/spans.py wraps tracefem's classes and functions by name from
outside the package; a rename in the library would break a traced
benchmark run without failing any library test.  This runs one traced
benchmark process on a small study and checks that it completes and
that the counters of the mapping, the volume rule, the interface cut and
the three kernels are filled and count every point and triangle once.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from tracefem.cutquad import extract_cuts, tet_rule
from tracefem.levelset import Sphere
from tracefem.mesh import ActiveMesh, MeshParams

ROOT = Path(__file__).resolve().parent.parent


def traced_run(config, out):
    """The result of one traced benchmark process running config into out."""
    spec = {"mode": "trace", "spawned": time.monotonic(), "config": dict(config, out=str(out))}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "pipebench" / "proc.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_benchmark_process_runs_a_small_study(tmp_path):
    config = {"benchmark": "sphere", "k": 2, "base_n": 8, "levels": 1, "stab": "normal_volume"}
    result = traced_run(config, tmp_path)
    assert result["failures"] == []
    layers = result["layers"]
    # Theta solves once per element node and the volume rule has q points per
    # element, however the two stages split the mesh into chunks
    nb = (config["k"] + 1) * (config["k"] + 2) * (config["k"] + 3) // 6
    q = len(tet_rule(2 * config["k"])[1])
    assert layers["mesh.elements"] > 0
    assert layers["mapping.points"] == nb * layers["mesh.elements"]
    assert layers["assembly.volume_points"] == q * layers["mesh.elements"]
    # the tracer counts the triangles of every chunk's cut once
    mesh = ActiveMesh.build(MeshParams(config["base_n"]), Sphere(), config["k"])
    assert layers["cutquad.triangles"] == len(extract_cuts(mesh.vertex_phi, mesh.verts_phys(slice(None)))[0])
    # the tracer wraps all three kernels on the backends module
    assert layers["kernel.eval_basis_points"] > 0
    assert layers["kernel.solve_dh_points"] > 0
    assert layers["kernel.accumulate_sym_s"] > 0
    # assemble_system adds A and the stabilization through the functions the tracer wraps
    assert layers["assembly.stab_s"] > 0
    assert layers["assembly.accumulate_s"] > 0
    assert layers["assembly.nnz"] > 0


def test_traced_sweep_checks_the_eigenvalues_of_normal_volume(tmp_path):
    """The sweep calls study.assemble_system once per variant, so the tracer knows which system each estimate is of.

    The tracer checks the eigenvalue estimate of the first normal_volume
    system it sees, in a bench.check span right after that estimate; a
    sweep that assembled its variants some other way would skip it.
    """
    config = {"conditioning": True, "k": 2, "base_n": 4, "shifts": [0.5]}
    result = traced_run(config, tmp_path)
    assert result["failures"] == []
    layers = result["layers"]
    assert layers["condition.calls"] == 4  # none, normal_volume, full_gradient_surface, full_gradient_volume
    assert layers["assembly.nnz"] > 0
    names = [span["name"] for span in json.loads((tmp_path / "trace.json").read_text())]
    estimates = [i for i, name in enumerate(names) if name == "condition"]
    assert names[estimates[1] + 1] == "bench.check"  # the second variant is normal_volume
