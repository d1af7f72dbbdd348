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


# The tracefem modules each library module imports: a module imports
# only from the layers below it, the pipeline's stages in their order.
LAYERS = {
    "backends": set(),
    "cutquad": set(),
    "levelset": set(),
    "reference": set(),
    "solver": set(),
    "mesh": {"backends", "levelset"},
    "mapping": {"backends", "mesh", "reference"},
    "assembly": {"backends", "cutquad", "mapping", "mesh"},
    "metrics": {"assembly"},
    "vtkio": {"assembly", "cutquad", "mesh"},
    "study": {"assembly", "levelset", "mapping", "mesh", "metrics", "reference", "solver", "vtkio"},
    "cli": {"levelset", "study"},
    "__init__": {"assembly", "backends", "levelset", "mapping", "mesh", "metrics", "reference", "solver"},
}


def test_modules_import_the_declared_layers():
    """Every library module's relative imports, read off its AST, are its row of LAYERS: mesh.py does not import assembly, for one."""
    src = Path(tracefem.__file__).parent
    found = {path.stem: set() for path in src.glob("*.py")}
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found[path.stem].update([node.module] if node.module else [a.name for a in node.names])
    assert found == LAYERS


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
    """Every function, class, method and UPPER_CASE module constant under src/tracefem is live.

    A name, an attribute or an import counts as a reference when it sits
    in module-level code other than __init__.py or in a live definition,
    one that is itself referenced so, to a fixed point: dead code that
    calls dead code shows whole.  A definition that only tests call
    belongs in tests/helpers.py.
    """
    src = Path(tracefem.__file__).parent
    defined, refs = {}, {None: set()}  # refs[owner]: names referenced by a definition (None: module-level code)

    def constants(node):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        return [name for name in names if name.lstrip("_")[:1].isupper() and name == name.upper()]

    def visit(node, owner, path, top):
        names = [node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else constants(node) if top else []
        if names and not names[0].startswith("__"):  # a dunder's references are its class's
            owner = (path.name, node.lineno)
            for name in names:
                defined.setdefault(name, []).append(owner)
            refs[owner] = set()
        if path.name != "__init__.py":
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs[owner].add(node.id)
            elif isinstance(node, ast.Attribute):
                refs[owner].add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                refs[owner].update(alias.name.split(".")[-1] for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, path, isinstance(node, ast.Module))

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path, False)
    live, grown = set(), True
    while grown:
        reached = set(refs[None]).union(*(refs[o] for name in live for o in defined.get(name, ())))
        grown, live = reached != live, reached
    dead = [f"{where[0]}:{where[1]} {name}" for name, wheres in defined.items() if name not in live for where in wheres]
    assert sorted(dead) == []
