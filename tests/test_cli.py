"""Command-line behavior: formats, exit codes, cache, determinism."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from eqschub import (
    CartanMatrix,
    RootPolynomial,
    build_root_system,
    builtin_root_system,
    element_from_word,
    enumerate_upto,
    inverse,
    inversions,
    longest_element,
    opposite_constants,
    restriction_table,
    structure_constants,
)
from eqschub.cli import main, run_sweep
from eqschub.rootsys import GENERAL

from conftest import affine_a_cartan, record_dict, triangular_constants


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def write_cartan(tmp_path, name, entries, kind=None):
    payload = {"rank": len(entries), "entries": entries}
    if kind:
        payload["kind"] = kind
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# rootsys


def test_rootsys_a2_lists_three_roots():
    code, out = run(["rootsys", "--type", "A2"])
    assert code == 0
    assert "positive roots (3):" in out
    assert "a1 + a2" in out


def test_rootsys_a1_json():
    code, out = run(["rootsys", "--type", "A1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["positive_roots"] == [[1]]
    assert data["fundamental_weights"] == [["1/2"]]


def test_rootsys_bad_cartan_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for payload in [
        {"rank": 1, "entries": [[1]]},
        {"rank": [1], "entries": [[2]]},
        {"rank": None, "entries": [[2]]},
        {"rank": True, "entries": [[2]]},
        {"rank": 1.0, "entries": [[2]]},
        {"entries": [[2.9, -1], [-1, 2]]},
        {"entries": [[2, -1.5], [-1, 2]]},
        {"entries": [[2, "-1"], [-1, 2]]},
        {"entries": [[2.0, -1], [-1, 2]]},
        {"entries": [[2, False], [False, 2]]},
    ]:
        path.write_text(json.dumps(payload))
        code, out = run(["rootsys", "--cartan", str(path)])
        assert (code, out) == (2, ""), payload
        assert capsys.readouterr().err.startswith("error: "), payload


def test_rootsys_affine_as_finite_exits_3(tmp_path):
    path = write_cartan(tmp_path, "aff.json", [[2, -2], [-2, 2]], kind="finite")
    code, _ = run(["rootsys", "--cartan", path])
    assert code == 3


def test_rootsys_affine_general_kind(tmp_path):
    path = write_cartan(tmp_path, "aff.json", [[2, -2], [-2, 2]], kind="general")
    code, out = run(["rootsys", "--cartan", path])
    assert code == 0
    assert "not enumerated" in out


def test_rootsys_requires_a_source():
    code, _ = run(["rootsys"])
    assert code == 2


# ---------------------------------------------------------------------------
# restrict


def test_restrict_a1_diagonal():
    code, out = run(["restrict", "--type", "A1", "--w", "1", "--v", "1"])
    assert code == 0
    assert out.strip() == "a1"


def test_restrict_a2_subword():
    code, out = run(["restrict", "--type", "A2", "--w", "1", "--v", "1,2"])
    assert code == 0
    assert out.strip() == "a1"


def test_restrict_vanishing():
    code, out = run(["restrict", "--type", "A2", "--w", "1,2", "--v", "1"])
    assert code == 0
    assert out.strip() == "0"


def test_restrict_malformed_word_exits_2():
    code, _ = run(["restrict", "--type", "A2", "--w", "1;2", "--v", "1"])
    assert code == 2
    code, _ = run(["restrict", "--type", "A2", "--w", "3", "--v", "1"])
    assert code == 2


def test_restrict_billey_convention_matches_inverse_lookup():
    _, kk = run(["restrict", "--type", "A2", "--w", "2,1", "--v", "2,1"])
    _, billey = run(
        ["restrict", "--type", "A2", "--w", "1,2", "--v", "1,2", "--convention", "Billey"]
    )
    assert kk == billey
    for name in ("A2", "B2"):
        rs = builtin_root_system(name)
        rng = enumerate_upto(rs, len(rs.positive_roots))
        for w in rng:
            for v in rng:
                args = ["restrict", "--type", name, "--w", w.word_text(), "--v", v.word_text()]
                code, kk = run(
                    ["restrict", "--type", name,
                     "--w", inverse(w).word_text(), "--v", inverse(v).word_text()]
                )
                assert code == 0
                for convention in ("Billey", "Arabia"):
                    assert run(args + ["--convention", convention]) == (0, kk)
    code, _ = run(["restrict", "--type", "A2", "--w", "1", "--v", "1", "--convention", "Bourbaki"])
    assert code == 2


def test_restrict_beyond_the_subword_formula():
    """l(v) = 64 on AffineA1: the subword formula would walk 2^64 subsets;
    the column route walks 64 letters."""
    aff = builtin_root_system("AffineA1")
    v = element_from_word(aff, (1, 2) * 32)
    assert v.length == 64
    code, out = run(["restrict", "--type", "AffineA1", "--w", "e", "--v", v.word_text()])
    assert (code, out) == (0, "1\n")
    diagonal = RootPolynomial.one(2)
    for beta in inversions(v):
        diagonal = diagonal * beta.to_polynomial()
    code, out = run(
        ["restrict", "--type", "AffineA1", "--w", v.word_text(), "--v", v.word_text()]
    )
    assert (code, out) == (0, diagonal.to_text() + "\n")


# ---------------------------------------------------------------------------
# mult


def test_mult_a1_x_basis():
    code, out = run(["mult", "--type", "A1", "--u", "1", "--v", "1", "--basis", "x"])
    assert code == 0
    assert "w=1: a1" in out
    assert "certificate: pass" in out


def test_mult_a1_y_basis_shows_negative_root():
    code, out = run(["mult", "--type", "A1", "--u", "1", "--v", "1", "--basis", "y"])
    assert code == 0
    assert "w=1: -a1" in out
    assert "certificate: pass" in out


def test_mult_eval_nonnegative():
    code, out = run(["mult", "--type", "A2", "--u", "1", "--v", "1", "--eval", "1,1"])
    assert code == 0
    for line in out.splitlines():
        if line.startswith("eval"):
            value = int(line.rsplit(":", 1)[1])
            assert value >= 0


def test_mult_csv_columns():
    code, out = run(["mult", "--type", "A1", "--u", "1", "--v", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w_word,degree,monomial,coefficient"
    assert "1,1,a1,1" in lines


def test_mult_json_has_certificate():
    code, out = run(
        ["mult", "--type", "A1", "--u", "1", "--v", "1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["verdict"] == "pass"


def test_mult_json_eval_is_json_dumps_of_the_record_dict():
    """``mult --format json --eval`` prints, byte for byte, ``json.dumps`` of
    the record's dict form with "eval" added last."""
    code, out = run(["mult", "--type", "B2", "--u", "1,2", "--v", "2", "--basis", "y",
                     "--format", "json", "--eval", "2,5/3"])
    rs = builtin_root_system("B2")
    u, v = element_from_word(rs, (1, 2)), element_from_word(rs, (2,))
    s = opposite_constants(structure_constants(restriction_table(rs, 3), u, v),
                           longest_element(rs))
    point = (Fraction(2), Fraction(5, 3))
    zero = RootPolynomial.zero(rs.rank)
    data = dict(record_dict(s), eval={
        "nu": ["2", "5/3"],
        "values": [
            {"w": list(w.word), "value": str(s.values.get(k, zero).evaluate(point))}
            for k, w in enumerate(s.order)
        ],
    })
    assert code == 0
    assert out == json.dumps(data) + "\n"


def test_mult_into_a_closed_pipe_prints_no_traceback():
    """A reader that leaves early (``eqschub mult ... | head -c 1``) ends the
    command without a traceback."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "eqschub.cli", "mult", "--type", "A3",
         "--u", "1,2,3", "--v", "3,2,1", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_mult_y_on_general_kind_exits_2():
    code, _ = run(["mult", "--type", "AffineA1", "--u", "1", "--v", "1", "--basis", "y"])
    assert code == 2


def test_mult_bad_eval_exits_2():
    code, _ = run(["mult", "--type", "A1", "--u", "1", "--v", "1", "--eval", "0"])
    assert code == 2
    code, _ = run(["mult", "--type", "A1", "--u", "1", "--v", "1", "--eval", "1,2"])
    assert code == 2


@pytest.mark.parametrize(
    "point,bad", [("1,1/0", "1/0"), ("x,1", "x"), ("1, 3/0 ", "3/0")],
    ids=["zero-denominator", "not-a-number", "padded"],
)
def test_mult_bad_eval_names_the_bad_value(capsys, point, bad):
    code, out = run(["mult", "--type", "A2", "--u", "1", "--v", "1", "--eval", point])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: --eval: bad rational value {bad!r}\n"


def test_mult_affine_pair():
    code, out = run(["mult", "--type", "AffineA1", "--u", "1", "--v", "2"])
    assert code == 0
    assert "certificate: pass" in out


def test_mult_rerun_is_byte_identical():
    args = ["mult", "--type", "B2", "--u", "1,2", "--v", "2", "--format", "json"]
    _, first = run(args)
    _, second = run(args)
    assert first == second


def test_mult_explicit_max_length_too_small_exits_2():
    code, _ = run(
        ["mult", "--type", "AffineA1", "--u", "1,2", "--v", "2,1", "--max-length", "2"]
    )
    assert code == 2
    # u or v longer than the bound itself, so outside the range.
    for rs_type, u, v in (("AffineA1", "1,2", "1"), ("A2", "1,2", "1"), ("A2", "1", "1,2")):
        code, _ = run(["mult", "--type", rs_type, "--u", u, "--v", v, "--max-length", "1"])
        assert code == 2


@pytest.mark.parametrize(
    "rs_type,u,v,nu",
    [
        ("A3", "1", "2", "1,2,3"),
        ("A3", "1,2", "2,3", "2,1,1"),
        ("A3", "2,1,3,2", "1,2,3", "1,1,2"),
        ("B2", "1", "2,1", "3,1"),
        ("B2", "1,2,1", "2,1,2", "1,2"),
    ],
)
def test_mult_default_bound_matches_whole_group_table(rs_type, u, v, nu):
    """Without --max-length a finite-type table stops at length(u)+length(v)."""
    whole = {"A3": "6", "B2": "4"}[rs_type]
    for fmt in ("text", "json", "csv"):
        for basis in ("x", "y"):
            for extra in ([], ["--eval", nu]):
                args = ["mult", "--type", rs_type, "--u", u, "--v", v,
                        "--format", fmt, "--basis", basis] + extra
                expected = run(args + ["--max-length", whole])
                assert expected[0] == 0
                assert run(args) == expected, args


@pytest.mark.parametrize("rs_type", ["B2", "G2"])
def test_mult_builds_the_shorter_ideal_and_matches_the_whole_table(monkeypatch, rs_type):
    """On every pair, swapped and equal-length ones included, mult's table
    holds the lower ideal of the shorter element (v on a tie) with e and
    the s_i, at the points above the longer element up to l(u) + l(v),
    those rows and the prefixes of their canonical words, and its
    constants are those of the whole table."""
    import eqschub.cli as cli

    rs = builtin_root_system(rs_type)
    whole = restriction_table(rs, len(rs.positive_roots))
    rng = whole.range
    built = []
    build = cli.restriction_table

    def recorded(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "restriction_table", recorded)
    zero = RootPolynomial.zero(rs.rank)
    for u in rng:
        for v in rng:
            code, out = run(["mult", "--type", rs_type, "--u", u.word_text(), "--v", v.word_text()])
            # mult's range stops at l(u) + l(v), a prefix of the whole one.
            table = built.pop()
            short, long = (u, v) if u.length < v.length else (v, u)
            short, long = rng.index[short], rng.index[long]
            assert table.rows == rng.leq[short] | set(range(min(len(table.range), rs.rank + 1)))
            upper = {b for b in range(len(table.range)) if long in rng.leq[b]}
            assert table.points == {
                rng.index[element_from_word(rs, rng.elements[b].word[:j])]
                for b in upper | table.rows for j in range(rng.elements[b].length + 1)
            }, (u, v)
            s = structure_constants(whole, u, v)
            assert code == 0
            assert out.splitlines()[1:-1] == [
                f"w={w.word_text()}: {s.values.get(k, zero).to_text()}"
                for k, w in enumerate(s.order)
            ], (u, v)


def test_internal_solver_failure_exits_4(monkeypatch):
    import eqschub.cli as cli
    from eqschub import NotDivisible

    def boom(table, u, v):
        raise NotDivisible("forced")

    monkeypatch.setattr(cli, "structure_constants", boom)
    code, _ = run(["mult", "--type", "A1", "--u", "1", "--v", "1"])
    assert code == 4


def _corrupt_divisor(context, u, w):
    from eqschub.rootsys import LinearForm

    steps = context.steps[u]
    k, (_, i, divisor) = next((k, step) for k, step in enumerate(steps) if step[0] == w)
    doubled = divisor.scale(2)
    steps[k] = (w, i, LinearForm(doubled.rank, doubled.terms, _clean=True))


def _corrupt_chevalley_integer(context, u, w):
    i = next(i for x, i, _ in context.steps[u] if x == w)
    covers = context.covers_up[u][i]
    k = next(k for k, (x, _) in enumerate(covers) if x == w)
    covers[k] = (w, covers[k][1] + 1)


@pytest.mark.parametrize("corrupt", [_corrupt_divisor, _corrupt_chevalley_integer])
def test_sweep_exits_4_on_corrupted_recurrence_context(monkeypatch, corrupt):
    """In column s1 of A2, the entry at (u, w) = (s1, s2s1) is a2 divided by
    the divisor a2, and its numerator takes the Chevalley integer of s2s1
    over s1 once.  Doubling the divisor, or raising that integer from 1 to
    2, leaves no exact quotient."""
    import eqschub.cli as cli

    read = cli.ChevalleyContext.read

    def corrupted(context, x):
        fresh = context.steps[x] is None
        steps = read(context, x)
        rs = context.table.rs
        if fresh and context.elements[x] == element_from_word(rs, (1,)):
            corrupt(context, x, context.table.range.index[element_from_word(rs, (2, 1))])
        return steps

    monkeypatch.setattr(cli.ChevalleyContext, "read", corrupted)
    code, out = run(["sweep", "--type", "A2", "--max-length", "3"])
    assert (code, out) == (4, "")


def test_csv_rejected_outside_mult():
    code, _ = run(["rootsys", "--type", "A1", "--format", "csv"])
    assert code == 2
    code, _ = run(["restrict", "--type", "A1", "--w", "1", "--v", "1", "--format", "csv"])
    assert code == 2
    code, _ = run(["sweep", "--type", "A1", "--max-length", "1", "--format", "csv"])
    assert code == 2
    # each command declares only the flags it reads
    code, _ = run(["rootsys", "--type", "A1", "--jobs", "2"])
    assert code == 2
    code, _ = run(["restrict", "--type", "A1", "--w", "1", "--v", "1", "--max-length", "3"])
    assert code == 2
    code, _ = run(["mult", "--type", "A1", "--u", "1", "--v", "1", "--cache", "x"])
    assert code == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_a1_four_pairs():
    code, out = run(["sweep", "--type", "A1", "--max-length", "2"])
    assert code == 0
    assert "pairs=4" in out
    assert "verdict=pass" in out


def test_sweep_g2_full_group():
    code, out = run(["sweep", "--type", "G2", "--max-length", "6"])
    assert code == 0
    assert "pairs=144" in out
    assert "verdict=pass" in out


def test_sweep_affine_cartan_file(tmp_path):
    path = write_cartan(tmp_path, "aff.json", [[2, -2], [-2, 2]], kind="general")
    code, out = run(
        ["sweep", "--cartan", path, "--max-length", "6", "--basis", "x"]
    )
    assert code == 0
    assert "verdict=pass" in out
    # truncated range sweeps pairs up to half the bound: lengths 0..3
    assert "pairs=49" in out


def test_sweep_requires_max_length():
    code, _ = run(["sweep", "--type", "A1"])
    assert code == 2


def test_sweep_y_basis_passes():
    code, out = run(["sweep", "--type", "B2", "--max-length", "4", "--basis", "y"])
    assert code == 0
    assert "verdict=pass" in out


def test_sweep_json_report():
    code, out = run(["sweep", "--type", "A2", "--max-length", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["pair_count"] == 36
    assert data["verdict"] == "pass"
    assert data["fails"] == []


def test_sweep_rerun_is_byte_identical():
    args = ["sweep", "--type", "A2", "--max-length", "3"]
    _, first = run(args)
    _, second = run(args)
    assert first == second


def test_sweep_jobs_equivalence():
    base = ["sweep", "--type", "A2", "--max-length", "3", "--format", "json"]
    _, serial = run(base + ["--jobs", "1"])
    _, parallel = run(base + ["--jobs", "2"])
    assert serial == parallel


def test_run_sweep_takes_list_rows(tmp_path):
    """A library caller may give the Cartan rows as lists, as JSON does:
    the report and the cache are those tuple rows give."""
    rows = affine_a_cartan(2)
    reports, caches = [], []
    for name, entries in (("tuples", rows), ("lists", [list(row) for row in rows])):
        cache = tmp_path / f"{name}.jsonl"
        report = run_sweep(entries, GENERAL, 3, "x", cache_path=str(cache))
        reports.append(dict(report.to_json_dict(), cache=None))
        caches.append(cache.read_bytes())
    assert reports[0] == reports[1] and reports[0]["pair_count"] == 16
    assert caches[0] == caches[1]


SWEEP_CASES = {
    "A3-y": (builtin_root_system("A3"), 6, "y"),
    "AffineA2-x": (build_root_system(CartanMatrix(affine_a_cartan(2)), GENERAL), 4, "x"),
}


def sweep_cache(tmp_path, name, case, jobs):
    rs, bound, basis = SWEEP_CASES[case]
    cache = tmp_path / name
    report = run_sweep(rs.cartan.entries, rs.kind, bound, basis, jobs=jobs, cache_path=str(cache))
    assert report.verdict == "pass"
    return cache.read_bytes()


@pytest.mark.parametrize(
    "case,start",
    [pytest.param(case, "default", id=case) for case in sorted(SWEEP_CASES)]
    + [pytest.param(case, "spawn", id=f"{case}-spawn") for case in sorted(SWEEP_CASES)],
)
def test_sweep_cache_identical_across_jobs(tmp_path, monkeypatch, case, start):
    """The --jobs pool writes the jobs-1 bytes under the default start method
    and under spawn, where each worker unpickles the parent's table."""
    serial = sweep_cache(tmp_path, "serial.jsonl", case, 1)
    if start == "spawn":
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        import eqschub.cli as cli

        context = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            cli, "ProcessPoolExecutor", lambda **kw: ProcessPoolExecutor(mp_context=context, **kw)
        )
    parallel = sweep_cache(tmp_path, "parallel.jsonl", case, 2)
    assert serial == parallel


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_cache_lines_match_independent_solves(tmp_path, case):
    """Every cache line, the (v, u) ones made from the (u, v) solve included,
    equals the record of its own pair solved on its own, in row-major order."""
    rs, bound, basis = SWEEP_CASES[case]
    lines = sweep_cache(tmp_path, "cache.jsonl", case, 1).decode().splitlines()[1:]
    table = restriction_table(rs, bound)
    swept = [w for w in table.range if table.range.complete or 2 * w.length <= bound]
    keys = [(u, v) for u in swept for v in swept]
    assert len(lines) == len(keys)
    w0 = longest_element(rs) if basis == "y" else None
    for (u, v), line in zip(keys, lines):
        s = triangular_constants(table, u, v)
        if w0 is not None:
            s = opposite_constants(s, w0)
        assert line == json.dumps(record_dict(s)), (u, v)


def test_sweep_cache_written_and_resumed(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    args = ["sweep", "--type", "A1", "--max-length", "2", "--cache", cache]
    code, first = run(args)
    assert code == 0
    with open(cache) as fh:
        lines = [json.loads(line) for line in fh]
    assert "engine" in lines[0]
    assert lines[0]["convention"] == "KK"
    records = lines[1:]
    assert len(records) == 4
    keys = {(r["type"], r["basis"], tuple(r["u"]), tuple(r["v"])) for r in records}
    assert ("A1", "x", (1,), (1,)) in keys
    # resuming does not duplicate lines and reproduces the report
    code, second = run(args)
    assert code == 0
    assert first == second
    with open(cache) as fh:
        assert len(fh.readlines()) == 5


def test_sweep_cache_env_default(tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache.jsonl")
    monkeypatch.setenv("EQSCHUB_CACHE", cache)
    code, out = run(["sweep", "--type", "A1", "--max-length", "1"])
    assert code == 0
    assert os.path.exists(cache)
    assert "cache=" + cache in out


def test_sweep_certificate_failure_exits_5(monkeypatch):
    import dataclasses

    import eqschub.cli as cli

    certify = cli.positivity_certificate

    def failing(s):
        return dataclasses.replace(certify(s), failures=list(s.order))

    monkeypatch.setattr(cli, "positivity_certificate", failing)
    code, out = run(["sweep", "--type", "A1", "--max-length", "1", "--jobs", "1"])
    assert code == 5
    assert "verdict=fail" in out


@pytest.mark.parametrize(
    "error,code,prefix",
    [
        ("InvalidCartan", 2, "error"),
        ("RankMismatch", 2, "error"),
        ("SingularCartan", 2, "error"),
        ("NotGroupElement", 2, "error"),
        ("NotFiniteType", 2, "error"),
        ("InsufficientBound", 2, "error"),
        ("DomainViolation", 2, "error"),
        ("EqschubError", 2, "error"),
        ("ClosureOverflow", 3, "error"),
        ("ResourceCap", 3, "error"),
        ("NotDivisible", 4, "internal error"),
        ("InternalInconsistency", 4, "internal error"),
    ],
)
def test_error_class_sets_exit_code_and_prefix(monkeypatch, capsys, error, code, prefix):
    import eqschub
    import eqschub.cli as cli

    def fail(args, out):
        raise getattr(eqschub, error)("forced")

    monkeypatch.setitem(cli.COMMANDS, "rootsys", fail)
    assert main(["rootsys", "--type", "A1"]) == code
    assert capsys.readouterr().err == f"{prefix}: forced\n"


def test_value_error_exits_2(monkeypatch, capsys):
    import eqschub.cli as cli

    def fail(args, out):
        raise ValueError("forced")

    monkeypatch.setitem(cli.COMMANDS, "rootsys", fail)
    assert main(["rootsys", "--type", "A1"]) == 2
    assert capsys.readouterr().err == "error: forced\n"


def test_sweep_pool_never_exceeds_cpus_or_chunks(monkeypatch, tmp_path):
    """A huge --jobs asks the pool for no more workers than CPUs and chunks.

    The pool is replaced by an in-process fake, so no process starts.
    """
    import eqschub.cli as cli

    requested = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "_WORKER", {})
    rs = builtin_root_system("A2")  # 6 elements: 21 unordered pairs, 2 chunks of 16
    serial = tmp_path / "serial.jsonl"
    run_sweep(rs.cartan.entries, rs.kind, 3, "x", jobs=1, cache_path=str(serial))
    assert requested == []
    for cpus, expected in [(64, 2), (1, 1), (None, 1)]:
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        cache = tmp_path / f"pool-{cpus}.jsonl"
        run_sweep(rs.cartan.entries, rs.kind, 3, "x", jobs=100_000, cache_path=str(cache))
        assert requested[-1] == expected
        assert cache.read_bytes() == serial.read_bytes()


def test_cold_sweep_sets_up_once(monkeypatch, tmp_path):
    """One root system, one range and one table on a cold sweep; every
    element a solve reads comes from that range, none is built from a word.
    A second sweep in the same process builds only its table."""
    import eqschub.cli as cli
    import eqschub.localize as localize

    cli.clear_setup()
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in [
        (cli, "build_root_system"),
        (cli, "enumerate_upto"),
        (localize, "enumerate_upto"),
        (cli, "restriction_table"),
        (cli, "element_from_word"),
    ]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rs = builtin_root_system("A3")
    report = run_sweep(rs.cartan.entries, rs.kind, 4, "y", cache_path=str(tmp_path / "c.jsonl"))
    assert report.verdict == "pass"
    assert sorted(calls) == ["build_root_system", "enumerate_upto", "restriction_table"]
    calls.clear()
    report = run_sweep(rs.cartan.entries, rs.kind, 4, "y", cache_path=str(tmp_path / "d.jsonl"))
    assert report.verdict == "pass"
    assert calls == ["restriction_table"]


def test_warm_calls_match_cold_calls(tmp_path, monkeypatch, capsys):
    """A shuffled run of calls in one process, each reusing the root systems
    and the range its predecessors left, prints what the same call prints
    on cleared memos: stdout, stderr and exit code."""
    import random
    import re

    import eqschub.cli as cli

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    a3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    a3_file = write_cartan(tmp_path, "a3.json", a3)
    a3_general = write_cartan(tmp_path, "a3-general.json", a3, GENERAL)
    calls = [
        ["mult", "--type", "A3", "--u", "1,2,3", "--v", "2,1,3,2", "--format", "json"],
        ["mult", "--type", "A3", "--u", "1", "--v", "2"],
        ["mult", "--type", "A3", "--u", "1,2", "--v", "2,3", "--basis", "y", "--format", "csv"],
        ["mult", "--type", "A3", "--u", "2", "--v", "1,3", "--eval", "1,2,3"],
        ["mult", "--type", "A3", "--u", "1,2,3", "--v", "3,2", "--max-length", "3"],
        ["mult", "--type", "A3", "--u", "1", "--v", "1", "--max-length", "-1"],
        ["mult", "--type", "A3", "--u", "1,2,3,1", "--v", "2,1,3,2", "--max-length", "6"],
        ["mult", "--type", "G2", "--u", "1,2,1", "--v", "2", "--max-length", "20"],
        ["mult", "--type", "G2", "--u", "2,1,2", "--v", "1,2,1,2", "--format", "csv"],
        ["mult", "--type", "G2", "--u", "1", "--v", "2", "--basis", "y", "--eval", "1/2,3"],
        ["mult", "--type", "G2", "--u", "1,2", "--v", "2", "--max-length", "2"],
        ["mult", "--cartan", a3_file, "--u", "3", "--v", "3,2"],
        ["mult", "--cartan", a3_general, "--u", "1,2", "--v", "2,1"],
        ["mult", "--cartan", a3_general, "--u", "1,2,1", "--v", "3,2,1,2", "--format", "json"],
        ["mult", "--cartan", a3_general, "--u", "1", "--v", "2", "--basis", "y"],
        ["mult", "--type", "AffineA1", "--u", "1,2,1", "--v", "2,1", "--max-length", "7"],
        ["mult", "--type", "AffineA1", "--u", "1,2", "--v", "2", "--max-length", "4"],
        ["mult", "--type", "AffineA1", "--u", "1,2", "--v", "2,1,2", "--max-length", "9"],
        ["mult", "--type", "AffineA1", "--u", "1,2,1", "--v", "2,1,2", "--max-length", "5"],
        ["sweep", "--type", "A3", "--max-length", "3", "--format", "json"],
        ["sweep", "--cartan", a3_file, "--basis", "y", "--max-length", "2"],
        ["sweep", "--type", "AffineA1", "--max-length", "5"],
        ["restrict", "--type", "G2", "--w", "1,2", "--v", "2,1,2"],
    ]

    def call(argv):
        code, out = run(argv)
        err = capsys.readouterr().err
        return code, out, re.sub(r"completed in [0-9.]+s", "completed in Ts", err)

    cold = {}
    for argv in calls:
        cli.clear_setup()
        cold[tuple(argv)] = call(argv)
    assert {code for code, _, _ in cold.values()} == {0, 2}
    sequence = calls * 2
    random.Random(16).shuffle(sequence)
    cli.clear_setup()
    for argv in sequence:
        assert call(argv) == cold[tuple(argv)], argv


def _forbid_solving(monkeypatch):
    import eqschub.cli as cli

    def solve(*args):
        raise AssertionError("a pair was solved before the cache was validated")

    monkeypatch.setattr(cli, "column_constants", solve)


@pytest.mark.parametrize(
    "header",
    [
        None,
        {"engine": "eqschub 0.0.9", "convention": "KK", "format": 1},
        {"engine": "eqschub 0.1.0", "convention": "Billey", "format": 1},
        {"engine": "eqschub 0.1.0", "convention": "KK", "format": 2},
        [1, 2],
    ],
    ids=["missing", "engine", "convention", "format", "not-an-object"],
)
def test_sweep_refuses_cache_with_wrong_header(tmp_path, monkeypatch, capsys, header):
    cache = tmp_path / "cache.jsonl"
    record = {"type": "A1", "basis": "x", "u": [], "v": []}
    lines = [record] if header is None else [header, record]
    cache.write_text("".join(json.dumps(line) + "\n" for line in lines))
    before = cache.read_bytes()
    _forbid_solving(monkeypatch)
    code, out = run(["sweep", "--type", "A1", "--max-length", "1", "--cache", str(cache)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cache) in err and "line 1" in err
    assert cache.read_bytes() == before


@pytest.mark.parametrize(
    "bad",
    [
        '{"type": "A1", "basis": "x", "u": [1], "v"',
        "[1, 2]",
        '{"type": "A1"}',
        '{"type": "A1", "basis": "x", "u": [[1]], "v": [], "values": [],'
        ' "certificate": {"verdict": "pass"}}',
        '{"type": ["A1"], "basis": "x", "u": [], "v": [], "values": [],'
        ' "certificate": {"verdict": "pass"}}',
    ],
)
def test_sweep_refuses_cache_with_bad_line(tmp_path, monkeypatch, capsys, bad):
    cache = str(tmp_path / "cache.jsonl")
    args = ["sweep", "--type", "A1", "--max-length", "1", "--cache", cache]
    assert run(args)[0] == 0
    with open(cache, "a") as fh:
        fh.write(bad + "\n")
    capsys.readouterr()
    _forbid_solving(monkeypatch)
    code, _ = run(args)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cache {cache}: line 6 is not ")


def test_sweep_cache_that_cannot_be_read_exits_2(tmp_path, capsys):
    code, _ = run(["sweep", "--type", "A1", "--max-length", "1", "--cache", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read cache {tmp_path}: ")


def test_sweep_extends_cache_of_this_version_byte_identically(tmp_path):
    short = str(tmp_path / "short.jsonl")
    full = str(tmp_path / "full.jsonl")
    base = ["sweep", "--type", "A2", "--format", "json"]
    assert run(base + ["--max-length", "3", "--cache", full])[0] == 0
    assert run(base + ["--max-length", "1", "--cache", short])[0] == 0
    with open(short) as fh:
        kept = fh.read()
    assert run(base + ["--max-length", "3", "--cache", short])[0] == 0
    with open(short) as fh, open(full) as gh:
        extended, fresh = fh.read(), gh.read()
    assert extended.startswith(kept)
    assert sorted(extended.splitlines()) == sorted(fresh.splitlines())
    again = run(base + ["--max-length", "3", "--cache", full])
    assert again[0] == 0
    with open(full) as gh:
        assert gh.read() == fresh


def test_sweep_writes_header_into_empty_cache_file(tmp_path):
    cache = tmp_path / "empty.jsonl"
    cache.write_text("")
    assert run(["sweep", "--type", "A1", "--max-length", "1", "--cache", str(cache)])[0] == 0
    lines = cache.read_text().splitlines()
    assert json.loads(lines[0])["engine"].startswith("eqschub ")
    assert len(lines) == 5


def _forbid_table(monkeypatch):
    import eqschub.cli as cli

    def build(*args, **kwargs):
        raise AssertionError("a restriction table was built with nothing left to solve")

    monkeypatch.setattr(cli, "restriction_table", build)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", build)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_full_cache_rerun_solves_nothing(tmp_path, monkeypatch, jobs):
    cache = tmp_path / "cache.jsonl"
    args = ["sweep", "--type", "A2", "--max-length", "3", "--cache", str(cache), "--jobs", jobs]
    first = run(args)
    before = cache.read_bytes()
    _forbid_solving(monkeypatch)
    _forbid_table(monkeypatch)
    assert run(args) == first == (0, first[1])
    assert cache.read_bytes() == before


RESUME_CASES = {
    "A3-y": (builtin_root_system("A3"), 4, "y"),
    "AffineA2-x": (build_root_system(CartanMatrix(affine_a_cartan(2)), GENERAL), 4, "x"),
}


class _CountingPool:
    """A real process pool that counts the pairs handed to its workers."""

    def __init__(self, seen, **kwargs):
        from concurrent.futures import ProcessPoolExecutor

        self.pool = ProcessPoolExecutor(**kwargs)
        self.seen = seen

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.pool.shutdown(wait=True)
        return False

    def map(self, fn, rows, chunksize=1):
        self.seen.extend((u, v) for u, row in rows for v in row)
        return self.pool.map(fn, rows, chunksize=chunksize)


def _count_solves(monkeypatch, jobs):
    """List that receives the ids of each pair solved: in this process at
    jobs 1, handed to a worker otherwise."""
    import eqschub.cli as cli

    seen = []
    if jobs == 1:
        solve = cli.column_constants

        def counted(context, v, us):
            seen.extend((v, u) for u in us)
            return solve(context, v, us)

        monkeypatch.setattr(cli, "column_constants", counted)
    else:
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda **kw: _CountingPool(seen, **kw))
    return seen


def _keys(lines):
    keys = []
    for line in lines:
        record = json.loads(line)
        keys.append((tuple(record["u"]), tuple(record["v"])))
    return keys


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(RESUME_CASES))
def test_sweep_resumes_cut_cache_solving_only_missing_pairs(tmp_path, monkeypatch, case, jobs):
    rs, bound, basis = RESUME_CASES[case]
    cold = tmp_path / "cold.jsonl"
    run_sweep(rs.cartan.entries, rs.kind, bound, basis, cache_path=str(cold))
    lines = cold.read_bytes().splitlines(keepends=True)
    records = len(lines) - 1
    all_keys = _keys(lines[1:])
    words = [w.word for w in enumerate_upto(rs, bound)]
    seen = _count_solves(monkeypatch, jobs)
    for k in sorted({0, 1, 5, records // 2 + 3, records - 1}):
        kept = b"".join(lines[: k + 1])
        cache = tmp_path / f"cut-{k}.jsonl"
        cache.write_bytes(kept)
        seen.clear()
        report = run_sweep(rs.cartan.entries, rs.kind, bound, basis, jobs=jobs, cache_path=str(cache))
        assert report.verdict == "pass" and report.pair_count == records
        resumed = cache.read_bytes()
        assert resumed.startswith(kept)
        assert sorted(resumed.splitlines()) == sorted(cold.read_bytes().splitlines())
        cached = set(all_keys[:k])
        left = {frozenset(p) for p in all_keys if p not in cached or p[::-1] not in cached}
        assert len(seen) == len(left), k
        assert {frozenset((words[a], words[b])) for a, b in seen} == left


def _edit_record(cache, edit):
    """Apply ``edit`` to the first record of the cache with a nonzero value;
    return that record's line number."""
    lines = cache.read_text().splitlines()
    for number, line in enumerate(lines[1:], start=2):
        record = json.loads(line)
        if any(value["poly"]["terms"] for value in record["values"]):
            edit(record)
            lines[number - 1] = json.dumps(record)
            cache.write_text("".join(line + "\n" for line in lines))
            return number, record
    raise AssertionError("no record with a nonzero value")


def _negate_first_coefficient(record):
    term = next(t for value in record["values"] for t in value["poly"]["terms"])
    term["coeff"] = str(-int(term["coeff"]))


def test_sweep_reports_fail_for_cached_negative_record(tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    args = ["sweep", "--type", "A2", "--max-length", "3", "--cache", str(cache), "--format", "json"]
    assert run(args)[0] == 0

    def edit(record):
        _negate_first_coefficient(record)
        record["certificate"]["verdict"] = "fail"

    _, record = _edit_record(cache, edit)
    _forbid_solving(monkeypatch)
    code, out = run(args)
    assert code == 5
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["fails"] == [{"u": record["u"], "v": record["v"]}]


@pytest.mark.parametrize("values", ["negative", "nonnegative"])
def test_sweep_refuses_record_whose_verdict_contradicts_its_values(
    tmp_path, monkeypatch, capsys, values
):
    cache = tmp_path / "cache.jsonl"
    args = ["sweep", "--type", "B2", "--basis", "y", "--max-length", "4", "--cache", str(cache)]
    assert run(args)[0] == 0

    def edit(record):
        if values == "negative":
            _negate_first_coefficient(record)
        else:
            record["certificate"]["verdict"] = "fail"

    number, _ = _edit_record(cache, edit)
    before = cache.read_bytes()
    capsys.readouterr()
    _forbid_solving(monkeypatch)
    code, out = run(args)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(f"error: cache {cache}: line {number} ")
    assert cache.read_bytes() == before


@pytest.mark.parametrize("cut", ["mid-line", "before-newline"])
def test_sweep_drops_torn_trailing_line(tmp_path, capsys, cut):
    rs = builtin_root_system("A3")
    cold = tmp_path / "cold.jsonl"
    run_sweep(rs.cartan.entries, rs.kind, 4, "x", cache_path=str(cold))
    full = cold.read_bytes()
    lines = full.splitlines(keepends=True)
    kept = b"".join(lines[:8])
    torn = lines[8][: len(lines[8]) // 2] if cut == "mid-line" else lines[8][:-1]
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(kept + torn)
    capsys.readouterr()
    args = ["sweep", "--type", "A3", "--max-length", "4", "--cache", str(cache)]
    assert run(args)[0] == 0
    err = capsys.readouterr().err
    if cut == "mid-line":
        assert err.startswith(f"warning: cache {cache}: line 9 ")
    else:
        assert "warning" not in err
    assert cache.read_bytes() == full


def test_sweep_keeps_finished_rows_when_interrupted(tmp_path, monkeypatch):
    import eqschub.cli as cli
    from eqschub import InternalInconsistency

    rs = builtin_root_system("A3")
    cold = tmp_path / "cold.jsonl"
    run_sweep(rs.cartan.entries, rs.kind, 4, "x", cache_path=str(cold))
    full = cold.read_bytes()
    solve = cli.column_constants
    pairs = []

    def crash_in_row_of_twentieth_pair(context, v, us):
        pairs.extend(us)
        if len(pairs) >= 20:
            raise InternalInconsistency("forced")
        return solve(context, v, us)

    monkeypatch.setattr(cli, "column_constants", crash_in_row_of_twentieth_pair)
    cache = tmp_path / "cache.jsonl"
    args = ["sweep", "--type", "A3", "--max-length", "4", "--cache", str(cache)]
    assert run(args)[0] == 4
    written = cache.read_bytes()
    # 9 swept elements; the first two rows hold 9 + 8 unordered pairs, so
    # the 20th pair is in the third row.
    assert written == b"".join(full.splitlines(keepends=True)[: 1 + 2 * 9])
    monkeypatch.setattr(cli, "column_constants", solve)
    assert run(args)[0] == 0
    assert cache.read_bytes() == full
