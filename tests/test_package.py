"""The package's public names and how its modules import each other."""

import ast
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
