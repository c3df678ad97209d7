"""Checks on the package's source text.

    PYTHONPATH=src python -m pytest -q tests/test_source.py
"""

import ast
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "eqschub").glob("*.py"))

# Modules a one-shot run loads only where it needs them: ``fractions``
# (with ``decimal``) for --eval, ``rootsys`` and the fundamental weights,
# ``csv`` for --format csv and the process pool for sweep --jobs > 1;
# ``dataclasses`` (with ``inspect``) not at all.
LAZY_MODULES = ("dataclasses", "inspect", "fractions", "decimal", "csv", "concurrent.futures")

IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import eqschub
a4 = eqschub.build_root_system(eqschub.CartanMatrix.from_rows(json.loads(sys.argv[2])), "finite")
eqschub.build_root_system(eqschub.CartanMatrix.from_rows(json.loads(sys.argv[3])), "general")
import eqschub.cli
loaded = [m for m in json.loads(sys.argv[4]) if m in sys.modules]
weights = [[str(c) for c in omega] for omega in a4.fundamental_weights]
print(json.dumps({"loaded": loaded, "weights": weights}))
"""


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


def test_import_path_leaves_lazy_modules_unloaded():
    """A fresh ``import eqschub``, two root systems (finite A4 and general
    affine A2, as the benchmark's setup probe builds) and ``import
    eqschub.cli`` load none of ``LAZY_MODULES``; A4's weights, read after,
    are the columns of the inverse Cartan matrix."""
    a4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    affine_a2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    argv = [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC),
            json.dumps(a4), json.dumps(affine_a2), json.dumps(LAZY_MODULES)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(done.stdout)
    assert result["loaded"] == []
    # (A_4^{-1})_{kj} = min(k, j) (5 - max(k, j)) / 5.
    expected = [[Fraction(min(k, j) * (5 - max(k, j)), 5) for k in range(1, 5)] for j in range(1, 5)]
    assert [[Fraction(c) for c in omega] for omega in result["weights"]] == expected
