"""The package imports nothing beyond numpy and the standard library,
defines nothing that only code outside it calls, and holds no writable
array at module level."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

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


# package definitions that no module of the package refers to, each with
# the reason it stays; anything else that only tests call belongs in tests
UNREFERENCED = {
    "cli._Parser.error": "argparse calls it",
    "synthdata.gen_source": "perfbench's tracer wraps it by name, and scripts call it",
    "losses.soft_dice": "criterion c02 checks it",
    "tensor.Tensor.item": "the tests' scalar accessor",
}


def _definitions(body, prefix: str):
    """Qualified name and bare name of every function, class and
    non-dunder method defined in ``body`` and in the bodies of those."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{prefix}.{node.name}", node.name
            yield from _definitions(node.body, f"{prefix}.{node.name}")


def test_every_package_definition_is_referenced_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {qualified for module, tree in trees.items()
                    for qualified, name in _definitions(tree.body, module) if name not in referenced}
    assert unreferenced == set(UNREFERENCED)


def test_every_module_level_array_is_read_only():
    """An array held by a module outlives every call, so no call may write
    to it; streams adapted in threads rely on sharing no buffer."""
    writable = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "ttaseg" if path.stem == "__init__" else f"ttaseg.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            if isinstance(value, np.ndarray) and value.flags.writeable:
                writable.append(f"{path.stem}.{attr}")
    assert writable == []
