"""No module of ``src/endatlas`` keeps a memo by hand: ``getattr``,
``hasattr`` or ``setattr`` on a private attribute named by a string literal
is the idiom that ``RootSystem.memo`` replaces."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "endatlas"
MODULES = sorted(SRC.glob("*.py"))


def private_attribute_calls(source: str):
    """The lines of ``source`` that call getattr, hasattr or setattr with a
    string literal naming a private attribute."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and node.args[1].value.startswith("_")
        ):
            hits.append(node.lineno)
    return hits


def test_private_attribute_calls_finds_the_idiom():
    source = (
        "cache = getattr(rs, '_x', None)\n"
        "if not hasattr(self, '_y'):\n    setattr(self, '_y', 1)\n"
        "name = '_z'\nok = getattr(args, name) or getattr(args, 'public')\n"
    )
    assert private_attribute_calls(source) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_keeps_a_memo_by_hand(path):
    assert private_attribute_calls(path.read_text(encoding="utf-8")) == []
