"""Every public module-level function and class of the package is reached.

A static check over the source with :mod:`ast`: a public ``def`` or ``class``
at module level in ``src/declutter/`` must be referenced from outside its own
definition, as a name, an attribute or an imported name, in the package
itself, in ``tests/test_acceptance.py`` or in ``perfbench/*.py`` (the
benchmark's tracer looks names up there). ``__init__.py`` re-exports every
public name and does not count, nor do docstrings or other strings.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "declutter"


def _referenced(node: ast.AST) -> set[str]:
    """Names, attribute names and imported names read anywhere in node."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in n.names)
    return out


def unreferenced(package: dict[str, str], readers: list[str]) -> list[str]:
    """Public top-level functions and classes of the package sources (module
    name -> source) that no other top-level statement of the package, and
    nothing in the reader sources, references."""
    statements = [(module, stmt, _referenced(stmt)) for module, source in package.items()
                  for stmt in ast.parse(source).body]
    outside = set().union(*(_referenced(ast.parse(s)) for s in readers))
    found = []
    for module, stmt, _ in statements:
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and stmt.name not in outside
                and not any(stmt.name in refs for _, other, refs in statements
                            if other is not stmt)):
            found.append(f"{module}.{stmt.name}")
    return sorted(found)


def test_every_public_function_and_class_is_referenced():
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    readers = [p.read_text(encoding="utf-8")
               for p in [ROOT / "tests" / "test_acceptance.py",
                         *sorted((ROOT / "perfbench").glob("*.py"))]]
    assert unreferenced(package, readers) == []


def test_the_check_sees_a_straggler():
    package = {"a": ('def used():\n    """calls unused()"""\n'
                     "def unused():\n    return unused()\n"
                     "class Kept:\n    pass\n"
                     "def _private():\n    return used()\n"),
               "b": "from .a import Kept\n"}
    assert unreferenced(package, []) == ["a.unused"]
    assert unreferenced(package, ["import x\nx.unused()\n"]) == []
    assert unreferenced(package, ["from a import unused\n"]) == []
