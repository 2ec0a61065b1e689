"""The runtime stays numpy-only: the package imports nothing else from outside the stdlib."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ttkit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(tree):
    # Top-level module of every absolute import; relative ones stay in ttkit.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {
        (path.name, top)
        for path in sources
        for top in _absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if top not in ALLOWED
    }
    assert not found, sorted(found)
