"""Every name that a module of ``src/endatlas`` imports is used in it.

``__init__.py`` is left out: it imports names to export them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "endatlas"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom math import gcd, lcm as l\n"
        "def f(x: 'unused'):\n    from fractions import Fraction\n    return l(x, 2)\n"
    )
    assert unused_imports(source) == ["Fraction", "gcd", "js", "os"]


def test_there_are_modules_to_check():
    assert {"elliptic.py", "localglobal.py", "suites.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
