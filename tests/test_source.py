"""Rules that hold of the package source itself."""

import ast
from pathlib import Path

import bergesat

SOURCES = sorted(Path(bergesat.__file__).parent.glob("*.py"))


def test_no_invariant_rests_on_assert():
    # python -O strips assert statements, so a check written as one
    # silently vanishes; invariants raise InternalError instead
    found = [f"{p.name}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(), str(p)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
