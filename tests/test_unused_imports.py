"""No module of the package imports a name it never uses.

A static check over the source with :mod:`ast`: every name an import binds
must be read somewhere in the module (as a name, the root of an attribute,
or inside a string annotation). ``__init__.py`` re-exports on purpose and is
skipped, as is any import line marked ``# noqa: F401``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "declutter"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # string annotations such as -> "SamplingCertificate"
    annotations = [getattr(n, field) for n in ast.walk(tree)
                   for field in ("annotation", "returns") if getattr(n, field, None)]
    for node in (n for a in annotations for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            inner = ast.parse(node.value, mode="eval")
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_straggler():
    source = ("from .neighbors import AUTO, build_index\n"
              "from .robust import profile  # noqa: F401\n"
              "import numpy as np\n"
              "def f(x: 'np.ndarray'):\n"
              "    return build_index(x)\n")
    assert unused_imports(source) == ["AUTO (line 1)"]
