"""Every module under ``src/repro`` is imported by code that ships.

An AST scan beside ``tests/test_unused_imports.py``, whose module walk
and relative-import resolution it reuses: a module counts as used when
some file under ``src/``, ``perfbench/``, ``benchmarks/`` or
``examples/`` imports it -- at any depth, so lazy imports inside
functions count -- or imports a submodule of it (a package is used
when one of its modules is).  Imports from ``tests/`` do not count: a
module only its own test reaches is dead code.  ``__main__`` entry
points are exempt; the interpreter runs them.
"""

import ast
import os
from typing import Iterator, Set, Tuple

from tests.test_unused_imports import SRC, _modules, _source_module

ROOT = os.path.dirname(SRC)
#: Directories outside ``src/`` whose imports count as uses.
OUTSIDE = ("perfbench", "benchmarks", "examples")


def _sources() -> Iterator[Tuple[str, str, ast.Module]]:
    """``(module name, path, tree)`` of every scanned file; files
    outside ``src/`` have no module name."""
    for module, (path, tree, _lines) in _modules().items():
        yield module, path, tree
    for top in OUTSIDE:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    with open(path) as handle:
                        yield "", path, ast.parse(handle.read(), path)


def _imported(module: str, path: str, tree: ast.Module) -> Set[str]:
    """Absolute names of every module a file may import: ``import a.b``
    names ``a.b``; ``from a import b`` names ``a`` and ``a.b`` (``b``
    may be a submodule)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _source_module(module, path, node)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def unused_modules() -> Set[str]:
    imported: Set[str] = set()
    for module, path, tree in _sources():
        for name in _imported(module, path, tree):
            # A submodule import also loads every enclosing package.
            parts = name.split(".")
            imported.update(
                ".".join(parts[:i]) for i in range(1, len(parts) + 1)
            )
    return {
        module
        for module in set(_modules()) - imported
        if module.rpartition(".")[2] != "__main__"
    }


def test_every_module_is_imported():
    assert sorted(unused_modules()) == []


def test_scan_resolves_relative_and_lazy_imports():
    """``compiler.py`` imports its siblings relatively, and the runner
    reaches the checkpoint module only inside a method; the scan must
    resolve both or it would flag live modules."""
    modules = _modules()
    path, tree, _lines = modules["repro.compiler"]
    compiler = _imported("repro.compiler", path, tree)
    assert {"repro.phases", "repro.observability"} <= compiler
    path, tree, _lines = modules["repro.egraph.runner"]
    runner = _imported("repro.egraph.runner", path, tree)
    assert "repro.service.checkpoint" in runner
