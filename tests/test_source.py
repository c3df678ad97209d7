"""Checks on the package's source text.

    PYTHONPATH=src python -m pytest -q tests/test_source.py
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "eqschub").glob("*.py"))


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_has_no_assert_statement(path):
    """``python -O`` strips ``assert``, so an invariant the package checks
    raises InternalInconsistency (exit 4) instead."""
    assert assert_lines(path.read_text(encoding="utf-8")) == [], path.name


def test_assert_lines_finds_a_nested_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n"
    assert assert_lines(source) == [3]
