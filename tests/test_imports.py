"""The package imports nothing beyond numpy and the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ttaseg"
ALLOWED = {"numpy", *sys.stdlib_module_names}


def _absolute_import_roots(tree: ast.AST):
    """(line, root module) of every absolute import in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [f"{path.name}:{line}: {root}" for path in sources
               for line, root in _absolute_import_roots(ast.parse(path.read_text(), str(path)))
               if root not in ALLOWED]
    assert outside == []
