"""The package's public names, how its modules import each other, and which scipy modules a run loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tracefem


def test_every_exported_name_resolves():
    """A stale name in __all__ would break `from tracefem import *`."""
    assert [name for name in tracefem.__all__ if not hasattr(tracefem, name)] == []
    assert len(set(tracefem.__all__)) == len(tracefem.__all__)
    namespace = {}
    exec("from tracefem import *", namespace)
    assert set(tracefem.__all__) <= set(namespace)


def test_no_module_imports_another_inside_a_function():
    """Every tracefem module imports the others at its top, so import cycles show at once."""
    src = Path(tracefem.__file__).parent
    late = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert late == []


LAZY_SCIPY = ("scipy.special", "scipy.linalg", "scipy.sparse.linalg", "scipy.io")

RUNS = f"""
import json, sys
import tracefem
from tracefem.study import StudyConfig, run_study

def loaded():
    return [m for m in {LAZY_SCIPY!r} if m in sys.modules]

seen = [loaded()]
run_study(StudyConfig(benchmark="torus", k=1, levels=1, base_n=8, out=sys.argv[1] + "/conv"))
seen.append(loaded())
run_study(StudyConfig(conditioning=True, k=2, base_n=4, shifts=[0.5], out=sys.argv[1] + "/cond"))
seen.append(loaded())
print(json.dumps(seen))
"""


def test_a_run_loads_only_the_scipy_modules_it_calls(tmp_path):
    """Import and convergence run take numpy and scipy.sparse alone; the condition estimate adds scipy.sparse.linalg, which loads scipy.linalg."""
    path = os.pathsep.join(filter(None, [str(Path(tracefem.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUNS, str(tmp_path)], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_convergence, after_sweep = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == after_convergence == []
    assert after_sweep == ["scipy.linalg", "scipy.sparse.linalg"]


def test_every_library_definition_has_a_library_caller():
    """Every function, class and method under src/tracefem is referenced by library code other than __init__.py.

    A name, an attribute or an import counts as a reference; a definition
    that only tests call belongs in tests/helpers.py.
    """
    src = Path(tracefem.__file__).parent
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            if path.name == "__init__.py":
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.split(".")[-1] for alias in node.names)
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in used) == []
