"""Every public name the package defines is reached.

A static check over the source with :mod:`ast`: a public ``def`` or ``class``
at module level in ``src/declutter/``, and a public method or property of a
public module-level class, must be referenced from outside its own
definition, as a name, an attribute or an imported name, in the package
itself, in ``tests/test_acceptance.py`` or in ``perfbench/*.py``. A method
counts as referenced by the other statements of its class too. In
``perfbench/*.py`` a string that is exactly the name also counts, because
the benchmark's tracer looks names up with ``getattr`` (its
``INDEX_METHODS``). ``__init__.py`` re-exports every public name and does not
count, nor do docstrings or other strings.

The shapes' ``point_distance`` is exempt: it is the oracle that
``tests/test_synthgen.py`` checks sampled points against, so by design only
tests reach it.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "declutter"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# validation oracles, reached only by the tests that compare against them
ORACLES = {"point_distance"}


def _referenced(node: ast.AST, strings: bool = False) -> set[str]:
    """Names, attribute names and imported names read anywhere in node, and
    with ``strings`` every string constant that is an identifier."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in n.names)
        elif (strings and isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            out.add(n.value)
    return out


def _stragglers(statements: list[ast.stmt], outside: set[str]) -> list[ast.stmt]:
    """The public defs among the statements whose name neither ``outside``
    nor any other of the statements references."""
    refs = [_referenced(s) for s in statements]
    return [s for s in statements
            if isinstance(s, _DEFS) and not s.name.startswith("_")
            and s.name not in outside
            and not any(s.name in r for other, r in zip(statements, refs)
                        if other is not s)]


def unreferenced(package: dict[str, str], readers: list[str],
                 tracers: list[str] = ()) -> list[str]:
    """Public top-level functions and classes of the package sources (module
    name -> source), and public methods and properties of its public
    top-level classes, that nothing references outside their own
    definition: no other statement of the package, nothing in the reader
    sources, and no name or identifier string in the tracer sources."""
    outside = set().union(*(_referenced(ast.parse(s)) for s in readers),
                          *(_referenced(ast.parse(s), strings=True) for s in tracers))
    tops = [(module, stmt) for module, source in package.items()
            for stmt in ast.parse(source).body]
    statements = [stmt for _, stmt in tops]
    top_refs = [_referenced(stmt) for stmt in statements]
    lonely = {id(s) for s in _stragglers(statements, outside)}
    found = [f"{module}.{stmt.name}" for module, stmt in tops if id(stmt) in lonely]
    for module, cls in tops:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            around = outside.union(*(r for s, r in zip(statements, top_refs)
                                     if s is not cls))
            found += [f"{module}.{cls.name}.{member.name}"
                      for member in _stragglers(cls.body, around)]
    return sorted(found)


def test_every_public_function_and_class_is_referenced():
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    readers = [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    tracers = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "perfbench").glob("*.py"))]
    found = unreferenced(package, readers, tracers)
    assert [name for name in found if name.split(".")[-1] not in ORACLES] == []


def test_the_check_sees_a_straggler():
    package = {"a": ('def used():\n    """calls unused()"""\n'
                     "def unused():\n    return unused()\n"
                     "class Kept:\n    pass\n"
                     "def _private():\n    return used()\n"),
               "b": "from .a import Kept\n"}
    assert unreferenced(package, []) == ["a.unused"]
    assert unreferenced(package, ["import x\nx.unused()\n"]) == []
    assert unreferenced(package, ["from a import unused\n"]) == []
    assert unreferenced(package, ["'unused'\n"]) == ["a.unused"]
    assert unreferenced(package, [], ["NAMES = ('unused',)\n"]) == []


def test_the_check_sees_a_straggling_method():
    package = {"a": ("class Index:\n"
                     "    def query(self):\n        return self.lonely()\n"
                     "    def lonely(self):\n        return self.lonely()\n"
                     "    def ask(self):\n        pass\n"
                     "    @property\n    def size(self):\n        return 0\n"
                     "    def _helper(self):\n        pass\n"
                     "class _Private:\n    def hook(self):\n        pass\n"
                     "def make():\n    return Index().query()\n"),
               "b": "from .a import make\n"}
    # lonely is called by query, but nothing calls ask or reads size
    assert unreferenced(package, []) == ["a.Index.ask", "a.Index.size"]
    assert unreferenced(package, ["i.size\n"], ["'ask'\n"]) == []
    assert unreferenced(package, ["'ask'\n"], ['"""calls ask"""\n']) == [
        "a.Index.ask", "a.Index.size"]
