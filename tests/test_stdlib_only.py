"""kwise runs on the standard library alone: every import in the package is
relative or names a standard-library module."""
import ast
import sys
from pathlib import Path

import kwise

PACKAGE = Path(kwise.__file__).resolve().parent


def imported_modules(tree):
    """(line, top-level module) of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_relative_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in imported_modules(ast.parse(path.read_text(), str(path)))
        if module not in sys.stdlib_module_names
    ]
    assert outside == []


def test_guard_sees_nested_imports():
    tree = ast.parse("def f():\n    import scipy.optimize\n    from numpy import array\n")
    assert [module for _, module in imported_modules(tree)] == ["scipy", "numpy"]
