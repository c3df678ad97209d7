"""Command-line behavior: formats, exit codes, cache, determinism."""

import io
import itertools
import json
import os
import subprocess
import sys
from bisect import bisect_right
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
    longest_element,
    opposite_constants,
    positivity_certificate,
    restriction_table,
    structure_constants,
)
from eqschub.cli import ascii_int, main, parse_eval_point, run_sweep
from eqschub.rootsys import GENERAL

from conftest import (
    affine_a_cartan,
    held_rows,
    inversion_product,
    record_dict,
    triangular_constants,
)


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


def test_cartan_file_is_built_once_per_text_and_refused_on_every_call(tmp_path, capsys):
    """A --cartan file is read on every call, and parsed, checked and
    built once per text: the same text gives the same root system without
    a second parse, an edited file is parsed again, and a refused file
    (bad JSON, a rank mismatch, a bad kind) is refused on every call."""
    import eqschub.cli as cli

    built = cli._cartan_file_system
    path = tmp_path / "c.json"
    args = cli._parser().parse_args(["rootsys", "--cartan", str(path)])
    cli.clear_setup()
    try:
        path.write_text(json.dumps({"rank": 2, "entries": [[2, -1], [-1, 2]]}))
        a2 = cli.load_root_system(args)
        assert cli.load_root_system(args) is a2 and a2.descriptor == "A2"
        assert (built.cache_info().hits, built.cache_info().misses) == (1, 1)
        path.write_text(json.dumps({"rank": 2, "entries": [[2, -1], [-2, 2]]}))
        assert cli.load_root_system(args).descriptor == "B2"
        assert built.cache_info().misses == 2
        for text, message in [
            ("{", "error: cartan file is not valid JSON"),
            ('{"rank": 3, "entries": [[2, -1], [-1, 2]]}', "error: rank field does not match"),
            ('{"entries": [[2, -1], [-1, 2]], "kind": "affine"}', "error: kind must be"),
        ]:
            path.write_text(text)
            for _ in range(2):
                assert run(["rootsys", "--cartan", str(path)]) == (2, "")
                assert capsys.readouterr().err.startswith(message), text
        path.write_text(json.dumps({"rank": 2, "entries": [[2, -1], [-1, 2]]}))
        assert cli.load_root_system(args) is a2
    finally:
        cli.clear_setup()


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


def test_restrict_word_past_the_descent_cap_exits_3(capsys):
    """A reduced word of 10,002 letters names a valid element of affine A1,
    longer than the 10,000 steps ``canonicalize`` takes: a resource cap,
    exit 3, not bad input."""
    word = ",".join("12"[k % 2] for k in range(10_002))
    code, out = run(["restrict", "--type", "AffineA1", "--w", "e", "--v", word])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: descent loop exceeded 10000 steps\n"


def test_restrict_malformed_word_exits_2():
    code, _ = run(["restrict", "--type", "A2", "--w", "1;2", "--v", "1"])
    assert code == 2
    code, _ = run(["restrict", "--type", "A2", "--w", "3", "--v", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "letter", ["\u00b2", "\u0663", "\uff11"], ids=["superscript-2", "arabic-indic-3", "fullwidth-1"]
)
def test_word_with_a_non_ascii_digit_is_malformed(capsys, letter):
    """A letter is ASCII digits only: a superscript, an Arabic-Indic or a
    fullwidth digit is a malformed word, exit 2, whether or not ``int``
    would read it."""
    assert run(["mult", "--type", "A2", "--u", letter, "--v", "1"]) == (2, "")
    assert capsys.readouterr().err == f"error: --u: malformed word {letter!r}\n"


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (["mult", "--type", "A2", "--u", "1", "--v", "1", "--max-length", "\u0663"],
         "--max-length", "\u0663"),
        (["sweep", "--type", "A2", "--max-length", "\uff13"], "--max-length", "\uff13"),
        (["sweep", "--type", "A2", "--max-length", "-\u0661"], "--max-length", "-\u0661"),
        (["sweep", "--type", "A2", "--max-length", "2", "--jobs", "\u0662"], "--jobs", "\u0662"),
    ],
    ids=["mult-bound-arabic-indic-3", "sweep-bound-fullwidth-3", "sweep-bound-minus-arabic-indic-1",
         "sweep-jobs-arabic-indic-2"],
)
def test_count_with_a_non_ascii_digit_is_an_invalid_value(capsys, argv, flag, value):
    """A bound or a job count is ASCII: any other digit is an invalid
    value, exit 2, though ``int`` would read it."""
    assert run(argv) == (2, "")
    assert f"argument {flag}: invalid int value: {value!r}\n" in capsys.readouterr().err


@pytest.mark.parametrize("text,value", [(" 2", 2), ("1_0", 10), ("+3", 3), ("-1", -1)])
def test_count_reads_every_ascii_form_int_reads(text, value):
    """Refusing other scripts takes no ASCII form from ``int``: spaces
    around the value, underscores between digits and a sign still read."""
    assert ascii_int(text) == value


@pytest.mark.parametrize(
    "point,bad", [("\u0661,\u0662", "\u0661"), ("1,\uff11/\uff12", "\uff11/\uff12"),
                  ("1,1e\u0663", "1e\u0663")],
    ids=["arabic-indic", "fullwidth-fraction", "arabic-indic-exponent"],
)
def test_eval_value_with_a_non_ascii_digit_is_bad(capsys, point, bad):
    """A coordinate is ASCII: a digit of another script is a bad rational
    value, exit 2, though ``Fraction`` would read it."""
    code, out = run(["mult", "--type", "A2", "--u", "1", "--v", "1", "--eval", point])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: --eval: bad rational value {bad!r}\n"


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
    diagonal = inversion_product(v)
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


def _mult_text_oracle(rs, u_word, v_word, basis, nu=None):
    """The stdout of ``mult --format text``, built the plain way: the
    header, ``to_text()`` of the value at every w of the pair's order,
    zeros included, the verdict and, with a point, each value there."""
    u, v = (
        element_from_word(rs, () if w == "e" else map(int, w.split(","))) for w in (u_word, v_word)
    )
    s = structure_constants(restriction_table(rs, u.length + v.length), u, v)
    if basis == "y":
        s = opposite_constants(s, longest_element(rs))
    zero = RootPolynomial.zero(rs.rank)
    values = [s.values.get(k, zero) for k in range(len(s.order))]
    lines = [f"type={rs.descriptor} basis={basis} u={u_word} v={v_word}"]
    lines += [f"w={w.word_text()}: {p.to_text()}" for w, p in zip(s.order, values)]
    lines.append(f"certificate: {positivity_certificate(s).verdict}")
    if nu is not None:
        point = [Fraction(x) for x in nu.split(",")]
        lines += [f"eval nu={nu} w={w.word_text()}: {p.evaluate(point)}"
                  for w, p in zip(s.order, values)]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("basis", ["x", "y"])
def test_mult_text_is_the_to_text_oracle(basis):
    """``mult --format text`` prints, byte for byte, the oracle built from
    ``to_text()`` on every pair of A2, B2 and G2, systems of one rank
    queried in turn in one process, with a point on every third query."""
    streams = []
    for name in ("A2", "B2", "G2"):
        rs = builtin_root_system(name)
        words = [w.word_text() for w in enumerate_upto(rs, len(rs.positive_roots))]
        streams.append([(rs, name, u, v) for u in words for v in words])
    queries = [q for step in itertools.zip_longest(*streams) for q in step if q]
    assert len(queries) == 6 * 6 + 8 * 8 + 12 * 12
    for n, (rs, name, u, v) in enumerate(queries):
        nu = "2,5/3" if n % 3 == 0 else None
        args = ["mult", "--type", name, "--u", u, "--v", v, "--basis", basis]
        code, out = run(args + (["--eval", nu] if nu else []))
        assert code == 0 and out == _mult_text_oracle(rs, u, v, basis, nu), args


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


@pytest.mark.parametrize("argv, err", [
    ("mult --type AffineA1 --u 1,2 --v 2,1 --max-length 3",
     "error: table bound 3 < length(u)+length(v) = 4\n"),
    ("mult --type A2 --u 1 --v 2 --eval 0,1", "error: every coordinate of nu must be positive\n"),
    ("sweep --type AffineA1 --max-length 3 --basis y",
     "error: y-basis sweep requires a finite-type root system\n"),
])
def test_engine_errors_exit_2_with_their_message(capsys, argv, err):
    """An engine error reaches stderr as ``error: <message>``, exit 2."""
    assert run(argv.split()) == (2, "")
    assert capsys.readouterr().err == err


def test_mult_csv_eval_checks_the_point_and_evaluates_nothing(monkeypatch):
    """csv prints no value, so ``--eval`` only checks its point."""
    import eqschub.cli as cli

    def boom(*args):
        raise AssertionError("csv evaluated a constant")

    monkeypatch.setattr(cli, "billey_evaluate", boom)
    argv = ["mult", "--type", "A2", "--u", "1", "--v", "1", "--format", "csv"]
    expected = 'w_word,degree,monomial,coefficient\n1,1,a1,1\n"2,1",0,1,1\n'
    assert run(argv + ["--eval", "1,2"]) == (0, expected)
    assert run(argv + ["--eval", "0,2"]) == (2, "")


@pytest.mark.parametrize(
    "point,bad", [("1,1/0", "1/0"), ("x,1", "x"), ("1, 3/0 ", "3/0")],
    ids=["zero-denominator", "not-a-number", "padded"],
)
def test_mult_bad_eval_names_the_bad_value(capsys, point, bad):
    code, out = run(["mult", "--type", "A2", "--u", "1", "--v", "1", "--eval", point])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: --eval: bad rational value {bad!r}\n"


@pytest.mark.parametrize("value", ["1e-99999999", "1E+4301", "1e4_301", "-2.5e-00012345"])
def test_mult_eval_refuses_a_huge_decimal_exponent_before_expanding_it(value):
    """Converting 1e-99999999 would build 10**99999999 first; the value is
    refused as bad input at once."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "eqschub.cli", "mult", "--type", "A2", "--u", "1", "--v", "1",
         "--eval", f"1,{value}"],
        capture_output=True, text=True, timeout=10, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: --eval: bad rational value {value!r}\n"


def test_eval_point_keeps_decimals_fractions_and_exponents_up_to_the_limit():
    assert parse_eval_point("1e5, 2/3,0.5,1e-4300,1e+0_0", 5) == (
        Fraction(100000), Fraction(2, 3), Fraction(1, 2), Fraction(1, 10**4300), Fraction(1),
    )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on the digits of an int"
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_mult_eval_too_long_to_print_writes_nothing(capsys, fmt):
    """1e-4300 is accepted, but the point's denominator has 4301 digits, past
    the interpreter's limit on printing an int: mult exits 2 naming --eval,
    with nothing on stdout rather than the part printed before it."""
    argv = ["mult", "--type", "A2", "--u", "1", "--v", "1", "--eval", "1,1e-4300",
            "--format", fmt]
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: --eval: a value at this point is too long to print: ")
    assert "4300" in err and err.count("\n") == 1
    # csv prints no value, so the point is only checked.
    code, out = run(argv[:-1] + ["csv"])
    assert code == 0 and out.startswith("w_word,degree,monomial,coefficient\n")


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


@pytest.mark.parametrize("rs_type", ["B2", "G2", "A3"])
def test_mult_builds_the_shorter_ideal_and_matches_the_whole_table(monkeypatch, rs_type):
    """On every pair, swapped and equal-length ones included, mult's table
    holds the lower ideal of the shorter element (v on a tie) and no other
    row, at the points above the longer element up to l(u) + l(v),
    those rows and the prefixes of their canonical words; at a point above
    the longer element that is no other point's prefix, it holds the
    shorter element's row alone; and its constants are those of the whole
    table."""
    import eqschub.structconst as structconst

    rs = builtin_root_system(rs_type)
    whole = restriction_table(rs, len(rs.positive_roots))
    rng = whole.range
    parent = {b: rng.index[element_from_word(rs, w.word[:-1])] for b, w in enumerate(rng) if b}
    built = []
    build = structconst.restriction_table

    def recorded(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(structconst, "restriction_table", recorded)
    zero = RootPolynomial.zero(rs.rank)
    for u in rng:
        for v in rng:
            code, out = run(["mult", "--type", rs_type, "--u", u.word_text(), "--v", v.word_text()])
            # mult's table reads the ids of its range up to l(u) + l(v).
            table = built.pop()
            rows = held_rows(table)
            points = table.rows_at.keys()
            short, long = (u, v) if u.length < v.length else (v, u)
            short, long = rng.index[short], rng.index[long]
            assert rows == rng.leq[short]
            stop = bisect_right(table.range.lengths, u.length + v.length)
            upper = {b for b in range(stop) if long in rng.leq[b]}
            assert points == {
                rng.index[element_from_word(rs, rng.elements[b].word[:j])]
                for b in upper | rows for j in range(rng.elements[b].length + 1)
            }, (u, v)
            # A point above the longer element that no step starts from
            # holds the shorter element's row alone.
            for b in upper - {parent[p] for p in points if p}:
                assert table.columns[b].keys() == {short} & rng.leq[b], (u, v, b)
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


def test_mult_exits_4_on_a_longest_element_of_the_wrong_length(monkeypatch, capsys):
    """The length check of ``longest_element`` raises, so ``python -O``
    keeps it: a canonical word of w0 one letter short of the number of
    positive roots makes ``mult --basis y`` exit 4, on a cleared memo."""
    import eqschub.weyl as weyl

    canonicalize = weyl.canonicalize

    def short(rs, matrix, **kwargs):
        w = canonicalize(rs, matrix, **kwargs)
        if w.length == len(rs.positive_roots):
            return weyl.WeylElement(rs, w.matrix, w.word[:-1])
        return w

    monkeypatch.setattr(weyl, "canonicalize", short)
    longest_element.cache_clear()
    try:
        code, out = run(["mult", "--type", "A2", "--u", "1", "--v", "2", "--basis", "y"])
    finally:
        longest_element.cache_clear()
    assert (code, out) == (4, "")
    assert "internal error: longest element has length 2, but there are 3" in capsys.readouterr().err


def _corrupt_divisor(steps, covers_up, w):
    from eqschub.rootsys import LinearForm

    k, (_, i, divisor) = next((k, step) for k, step in enumerate(steps) if step[0] == w)
    doubled = divisor * RootPolynomial.constant(divisor.rank, 2)
    steps = list(steps)
    steps[k] = (w, i, LinearForm(doubled.rank, doubled.terms, _clean=True))
    return steps, covers_up


def _corrupt_chevalley_integer(steps, covers_up, w):
    i = next(i for x, i, _ in steps if x == w)
    covers_up = [list(covers) for covers in covers_up]
    covers = covers_up[i]
    k = next(k for k, (x, _) in enumerate(covers) if x == w)
    covers[k] = (w, covers[k][1] + 1)
    return steps, covers_up


@pytest.mark.parametrize("corrupt", [_corrupt_divisor, _corrupt_chevalley_integer])
def test_sweep_exits_4_on_corrupted_recurrence_context(monkeypatch, capsys, corrupt):
    """In column s1 of A2, the entry at (u, w) = (s1, s2s1) is a2 divided by
    the divisor a2, and its numerator takes the Chevalley integer of s2s1
    over s1 once.  Doubling the divisor, or raising that integer from 1 to
    2, in what the recurrence reads at s1 leaves no exact quotient, and the
    error names that entry."""
    import eqschub.structconst as structconst

    recurrence = structconst._recurrence

    def corrupted(rng, x):
        steps, covers_up, covers_down = recurrence(rng, x)
        rs = rng.rs
        if rng.elements[x] == element_from_word(rs, (1,)):
            w = rng.index[element_from_word(rs, (2, 1))]
            steps, covers_up = corrupt(steps, covers_up, w)
        return steps, covers_up, covers_down

    monkeypatch.setattr(structconst, "_recurrence", corrupted)
    code, out = run(["sweep", "--type", "A2", "--max-length", "3"])
    assert (code, out) == (4, "")
    assert capsys.readouterr().err == "internal error: inexact division at (u=1, v=1, w=2,1)\n"


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
    import eqschub.cli as cli
    from eqschub import PositivityCertificate

    certify = cli.positivity_certificate

    def failing(s):
        c = certify(s)
        return PositivityCertificate(c.basis, c.entries, list(s.order))

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
    import eqschub.structconst as structconst

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
        (structconst, "restriction_table"),
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


AFFINE_A2_ROWS = tuple(tuple(row) for row in affine_a_cartan(2))
HYPERBOLIC_ROWS = ((2, -2, 0), (-2, 2, -1), (0, -1, 2))
A3_ROWS = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


@pytest.mark.parametrize("cartan, kind, bound, held", [
    # Affine A2: the 19 elements of length <= 3 of the 64 of length <= 6.
    (AFFINE_A2_ROWS, GENERAL, 6, 19),
    # Only e is swept, so only its row is held.
    (AFFINE_A2_ROWS, GENERAL, 1, 1),
    (A3_ROWS, "finite", 4, 9),
    # The whole of A2 is swept, so every row is held.
    (((2, -1), (-1, 2)), "finite", 6, 6),
])
def test_sweep_table_holds_the_rows_it_reads(monkeypatch, tmp_path, cartan, kind, bound, held):
    """A sweep's table holds, at every point of its range up to its bound,
    the rows of the swept elements, and no other; its cache is the one a
    table with every row gives."""
    import eqschub.localize as localize
    import eqschub.structconst as structconst

    tables = []

    def kept(*args, **kwargs):
        tables.append(localize.restriction_table(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(structconst, "restriction_table", kept)
    assert run_sweep(cartan, kind, bound, "x", cache_path=str(tmp_path / "rows.jsonl")).verdict == "pass"
    (table,) = tables
    extent = range(bisect_right(table.range.lengths, bound))
    assert table.rows_at == dict.fromkeys(extent, frozenset(range(held)))
    assert {w.length for w in table.range.elements[:held]} == set(range(bound // 2 + 1))

    def whole(rs, k, *, rng, rows, points):
        return localize.restriction_table(rs, k, rng=rng)

    monkeypatch.setattr(structconst, "restriction_table", whole)
    run_sweep(cartan, kind, bound, "x", cache_path=str(tmp_path / "whole.jsonl"))
    assert (tmp_path / "rows.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()


# Calls run in turn in one process, each a sweep (rows, kind, bound, basis,
# jobs) or a ``main`` argv.
WARM_SWEEPS = {
    "same-bound": [(AFFINE_A2_ROWS, GENERAL, 6, "x", 1), (AFFINE_A2_ROWS, GENERAL, 6, "x", 1)],
    "smaller-bound": [
        (AFFINE_A2_ROWS, GENERAL, 6, "x", 1), (AFFINE_A2_ROWS, GENERAL, 4, "x", 1),
        (AFFINE_A2_ROWS, GENERAL, 5, "x", 2),
    ],
    "larger-bound": [
        (AFFINE_A2_ROWS, GENERAL, 4, "x", 1), (AFFINE_A2_ROWS, GENERAL, 6, "x", 1),
        (AFFINE_A2_ROWS, GENERAL, 5, "x", 1),
    ],
    "y-after-x": [
        (A3_ROWS, "finite", 4, "x", 1), (A3_ROWS, "finite", 4, "y", 2),
        (A3_ROWS, "finite", 3, "y", 1),
    ],
    # The mult query holds the whole of A3; the sweeps read prefixes of it.
    "prefixes-of-a-whole-group": [
        ("mult", "--type", "A3", "--u", "1,2,1", "--v", "2,3,2"),
        (A3_ROWS, "finite", 3, "x", 1), (A3_ROWS, "finite", 4, "x", 1),
        (A3_ROWS, "finite", 3, "x", 1),
    ],
    "affine-hyperbolic-affine": [
        (AFFINE_A2_ROWS, GENERAL, 6, "x", 1), (HYPERBOLIC_ROWS, GENERAL, 6, "x", 1),
        (AFFINE_A2_ROWS, GENERAL, 6, "x", 1),
    ],
}


def _sweep_step(tmp_path, name, step):
    """Report (without its cache path) and cache bytes of one sweep into a
    fresh cache; exit code and stdout of a ``main`` argv."""
    if step[0] == "mult":
        return run(list(step))
    rows, kind, bound, basis, jobs = step
    cache = tmp_path / name
    report = run_sweep(rows, kind, bound, basis, jobs=jobs, cache_path=str(cache))
    return {k: v for k, v in report.to_json_dict().items() if k != "cache"}, cache.read_bytes()


@pytest.mark.parametrize("case", sorted(WARM_SWEEPS))
def test_warm_sweeps_match_cold_sweeps(tmp_path, case):
    """A sweep that reads the root system and range earlier calls in the
    process left writes the report and cache bytes it writes cold, whether
    it asks for the same bound, a smaller or a larger one, the other basis
    or another root system."""
    import eqschub.cli as cli

    steps = WARM_SWEEPS[case]
    cold = []
    for k, step in enumerate(steps):
        cli.clear_setup()
        cold.append(_sweep_step(tmp_path, f"cold{k}.jsonl", step))
    cli.clear_setup()
    for k, step in enumerate(steps):
        assert _sweep_step(tmp_path, f"warm{k}.jsonl", step) == cold[k], (case, k)


@pytest.mark.parametrize("cartan, kind", [
    (AFFINE_A2_ROWS, GENERAL),
    (((2, -1), (-3, 2)), "finite"),
], ids=["AffineA2", "G2"])
def test_sweep_after_a_longer_sweep_writes_what_a_fresh_process_writes(
        monkeypatch, tmp_path, cartan, kind):
    """A sweep at bound 4 right after one at bound 6 in the same process
    reads the range held for bound 6 (the whole group for G2) up to length
    4, with a table of the points up to length 4 alone, and writes the
    cache bytes a sweep at bound 4 in a process of its own writes."""
    import eqschub.cli as cli
    import eqschub.localize as localize
    import eqschub.structconst as structconst

    tables = []

    def kept(*args, **kwargs):
        tables.append(localize.restriction_table(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(structconst, "restriction_table", kept)

    path = write_cartan(tmp_path, "c.json", [list(row) for row in cartan], kind)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    fresh = tmp_path / "fresh.jsonl"
    subprocess.run(
        [sys.executable, "-m", "eqschub.cli", "sweep", "--cartan", path, "--max-length", "4",
         "--cache", str(fresh)],
        check=True, capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    cli.clear_setup()
    try:
        run_sweep(cartan, kind, 6, "x", cache_path=str(tmp_path / "six.jsonl"))
        held = cli._held_range
        assert held.bound == 6 and held.complete == (kind != GENERAL)
        report = run_sweep(cartan, kind, 4, "x", cache_path=str(tmp_path / "four.jsonl"))
        assert cli._held_range is held
        assert tables[-1].rows_at.keys() == set(range(bisect_right(held.lengths, 4)))
    finally:
        cli.clear_setup()
    assert report.verdict == "pass"
    assert (tmp_path / "four.jsonl").read_bytes() == fresh.read_bytes()


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


def test_interleaved_mult_queries_print_what_fresh_processes_print(tmp_path, monkeypatch):
    """mult queries on A3, B3 and a hyperbolic rank-3 matrix, interleaved
    through ``cli.main`` in one process (twice over, in two orders), each
    reading the range, the recurrence steps, w0 and the word texts its
    predecessors left, print what each prints in a process of its own."""
    import eqschub.cli as cli

    monkeypatch.chdir(tmp_path)
    write_cartan(tmp_path, "b3.json", [[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
    write_cartan(tmp_path, "hyp3.json", [[2, -2, 0], [-2, 2, -1], [0, -1, 2]], GENERAL)
    calls = [
        ["--type", "A3", "--u", "1,2,3", "--v", "2,1,3,2", "--basis", "y", "--format", "json"],
        ["--type", "A3", "--u", "2,1", "--v", "3,2", "--eval", "1,2,3"],
        ["--cartan", "b3.json", "--u", "3,2,3", "--v", "1,2,3,2", "--basis", "y"],
        ["--cartan", "hyp3.json", "--u", "1,2", "--v", "2,3"],
        ["--cartan", "hyp3.json", "--u", "2,1", "--v", "3,2,1,2", "--format", "json"],
        ["--type", "A3", "--u", "1,2,3,1", "--v", "2,3", "--basis", "y", "--format", "csv"],
        ["--cartan", "b3.json", "--u", "1,2", "--v", "2,3,2", "--format", "json", "--eval", "1,2,3"],
    ]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "eqschub.cli", "mult", *argv], capture_output=True,
            text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        for argv in calls
    ]
    assert all(proc.returncode == 0 and proc.stdout for proc in fresh)
    cli.clear_setup()
    order = [*range(len(calls)), *reversed(range(len(calls)))]
    for k in order:
        assert run(["mult", *calls[k]]) == (0, fresh[k].stdout), calls[k]


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
        '{"type": "A1", "basis": "z", "u": [], "v": [], "values": [],'
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


@pytest.mark.parametrize(
    "basis,exp", [("x", "zz"), ("y", [-1]), ("x", [True]), ("y", [1.0])],
    ids=["x-string", "y-negative", "x-bool", "y-float"],
)
def test_sweep_refuses_cache_with_a_bad_exponent(tmp_path, monkeypatch, capsys, basis, exp):
    """A stored exponent that is not a list of nonnegative ints makes the
    line no sweep record under either basis, though the x sign rule reads
    no exponent and the y rule only the parity of their sum."""
    cache = tmp_path / "cache.jsonl"
    args = ["sweep", "--type", "A1", "--max-length", "1", "--basis", basis, "--cache", str(cache)]
    assert run(args)[0] == 0
    lines = cache.read_text().splitlines()
    record = json.loads(lines[-1])
    terms = [term for value in record["values"] for term in value["poly"]["terms"]]
    assert terms
    for term in terms:
        term["exp"] = exp
    lines[-1] = json.dumps(record)
    cache.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    _forbid_solving(monkeypatch)
    code, out = run(args)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: cache {cache}: line {len(lines)} is not a sweep record")


@pytest.mark.parametrize("coeff", [-0.5, True, 2], ids=["float", "bool", "int"])
def test_sweep_refuses_cache_with_a_coefficient_that_is_not_a_string(
    tmp_path, monkeypatch, capsys, coeff
):
    """A sweep writes each coefficient as the string of an int, and a stored
    one of any other JSON type makes the line no sweep record.  Read by
    int(), -0.5 would be 0 and true would be 1, which both pass the x-basis
    sign rule, so the tampered record would be trusted."""
    cache = tmp_path / "cache.jsonl"
    args = ["sweep", "--type", "A2", "--max-length", "2", "--cache", str(cache)]
    assert run(args)[0] == 0
    lines = cache.read_text().splitlines()
    number = next(n for n, line in enumerate(lines) if n and '"coeff"' in line)
    record = json.loads(lines[number])
    term = next(term for value in record["values"] for term in value["poly"]["terms"])
    term["coeff"] = coeff
    lines[number] = json.dumps(record)
    cache.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    _forbid_solving(monkeypatch)
    code, out = run(args)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: cache {cache}: line {number + 1} is not a sweep record")


@pytest.mark.parametrize("key", ["u", "v"])
@pytest.mark.parametrize("letter", [True, 1.0], ids=["bool", "float"])
def test_sweep_refuses_cache_with_a_word_that_is_not_ints(
    tmp_path, monkeypatch, capsys, key, letter
):
    """A stored word that is not a list of ints makes the line no sweep
    record.  Read as one, [true] or [1.0] would key the pair of [1], which
    the resumed sweep would then skip, trusting the stored verdict and
    leaving no record of [1] in the cache."""
    cache = tmp_path / "cache.jsonl"
    args = ["sweep", "--type", "A2", "--max-length", "2", "--cache", str(cache)]
    assert run(args)[0] == 0
    lines = cache.read_text().splitlines()
    number = next(n for n, line in enumerate(lines) if n and json.loads(line)[key] == [1])
    record = json.loads(lines[number])
    record[key] = [letter]
    lines[number] = json.dumps(record)
    cache.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    _forbid_solving(monkeypatch)
    code, out = run(args)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: cache {cache}: line {number + 1} is not a sweep record")


@pytest.mark.parametrize("key", ["u", "v"])
@pytest.mark.parametrize("word", [[3], [1, 1], [2, 1, 2]], ids=["letter-3", "e", "w0"])
def test_sweep_refuses_cache_with_a_word_that_is_not_canonical(
    tmp_path, monkeypatch, capsys, key, word
):
    """A record of the sweep's type whose word has a letter outside
    1..rank, or spells an element whose canonical word is another, is
    refused with exit 2.  Kept, it would stay in the cache for good: the
    resumed sweep keys its pairs by canonical words, so it would never read
    or replace it."""
    cache = tmp_path / "cache.jsonl"
    args = ["sweep", "--type", "A2", "--max-length", "2", "--cache", str(cache)]
    assert run(args)[0] == 0
    lines = cache.read_text().splitlines()
    number = next(n for n, line in enumerate(lines) if n and json.loads(line)[key] == [1])
    record = json.loads(lines[number])
    record[key] = word
    lines[number] = json.dumps(record)
    cache.write_text("".join(line + "\n" for line in lines))
    before = cache.read_bytes()
    capsys.readouterr()
    _forbid_solving(monkeypatch)
    code, out = run(args)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: cache {cache}: line {number + 1} has the word {word},"
        " which is not the canonical word of an element of A2\n"
    )
    assert cache.read_bytes() == before
    # A record of another type is not this sweep's to judge.
    monkeypatch.undo()
    other = ["sweep", "--type", "B2", "--max-length", "2", "--cache", str(cache)]
    assert run(other)[0] == 0


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
    import eqschub.structconst as structconst

    def build(*args, **kwargs):
        raise AssertionError("a restriction table was built with nothing left to solve")

    monkeypatch.setattr(structconst, "restriction_table", build)
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

        def counted(table, v, us):
            seen.extend((v, u) for u in us)
            return solve(table, v, us)

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

    def crash_in_row_of_twentieth_pair(table, v, us):
        pairs.extend(us)
        if len(pairs) >= 20:
            raise InternalInconsistency("forced")
        return solve(table, v, us)

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
