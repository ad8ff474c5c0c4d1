"""No module under ``src/repro`` imports a name it never uses.

An AST scan, so it runs without a linter: every module-level import
(including those under ``if``/``try``, such as ``TYPE_CHECKING``
blocks) must bind a name the module reads -- in code, or in a string
annotation.  Re-exports are exempt: package ``__init__`` modules, names
listed in the module's ``__all__``, names another ``repro`` module
imports from this one, and imports marked ``# noqa: F401``.
"""

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
PACKAGE = os.path.join(SRC, "repro")


def _modules() -> Dict[str, Tuple[str, ast.Module, List[str]]]:
    """Module name -> (path, tree, source lines)."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            name = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            if name.endswith(".__init__"):
                name = name[: -len(".__init__")]
            with open(path) as handle:
                source = handle.read()
            found[name] = (path, ast.parse(source, path), source.splitlines())
    return found


def _source_module(module: str, path: str, node: ast.ImportFrom) -> str:
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    if not path.endswith("__init__.py"):
        parts = parts[:-1]
    parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def _top_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    pending = list(tree.body)
    while pending:
        stmt = pending.pop(0)
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            pending.extend(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            pending.extend(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                pending.extend(handler.body)


def _names_in_strings(annotation: ast.expr, used: Set[str]) -> None:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _names_in_strings(node.annotation, used)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                _names_in_strings(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            _names_in_strings(node.annotation, used)
    return used


def _exported(tree: ast.Module) -> Set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {
                e.value for e in stmt.value.elts if isinstance(e, ast.Constant)
            }
    return set()


def unused_imports() -> List[str]:
    modules = _modules()
    imported_from: Set[Tuple[str, str]] = set()
    for module, (path, tree, _lines) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _source_module(module, path, node)
                imported_from.update((source, a.name) for a in node.names)
    unused = []
    for module, (path, tree, lines) in modules.items():
        if path.endswith("__init__.py"):
            continue
        used = _used_names(tree) | _exported(tree)
        for node in _top_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound == "*" or bound in used:
                    continue
                if (module, bound) in imported_from:
                    continue
                unused.append(f"{module}:{node.lineno}: {bound}")
    return unused


def test_no_unused_imports():
    assert unused_imports() == []


def test_scan_sees_the_package():
    modules = _modules()
    assert "repro.egraph.egraph" in modules
    assert "repro.observability" in modules
