"""The benchmark's tracer binds eqschub names when it is installed.

``bench/tracing.py`` rebinds public functions and methods of the package
by name, so a name it binds that the package no longer has fails here,
in the tier-1 run, and not only in the benchmark's own self-tests.

    PYTHONPATH=src python -m pytest -q tests/test_bench_tracing.py
"""

import importlib.util
import io
from pathlib import Path

import eqschub.cli as cli
from eqschub.rootsys import RootPolynomial

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_installs_over_the_package_and_restores_it():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    main, mul = cli.main, RootPolynomial.__mul__
    with tracing.Tracer().installed() as tracer:
        assert cli.main is not main and RootPolynomial.__mul__ is not mul
        assert cli.main(["mult", "--type", "A2", "--u", "1", "--v", "1"], io.StringIO()) == 0
    assert cli.main is main and RootPolynomial.__mul__ is mul
    calls, _, _ = tracing.span_totals(tracer.spans)
    assert calls["cli.main"] == 1 and calls["localize.table"] == 1
