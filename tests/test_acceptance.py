"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Everything is exact integer or rational arithmetic; the only
tolerances are the stated wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from eqschub import (
    CartanMatrix,
    RootPolynomial,
    StructureTable,
    billey_evaluate,
    build_root_system,
    builtin_root_system,
    element_from_word,
    identity,
    longest_element,
    opposite_constants,
    positivity_certificate,
    restriction_table,
    structure_constants,
    verify_product_identity,
)
from eqschub.localize import RestrictionTable
from eqschub.structconst import pair_table

from conftest import all_reduced_words, billey_restrict, inversion_product, mat_vec


def report(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


# ---------------------------------------------------------------------------
# shared sweep data (criteria 2, 4, 6, 7)

FINITE_SYSTEMS = ("A2", "B2", "G2", "A3")


@pytest.fixture(scope="module")
def sweeps():
    data = {}
    for name in FINITE_SYSTEMS:
        start = time.perf_counter()
        rs = builtin_root_system(name)
        bound = len(rs.positive_roots)
        table = restriction_table(rs, bound)
        w0 = longest_element(rs)
        x_tables = {}
        y_tables = {}
        for u in table.range:
            for v in table.range:
                s = structure_constants(table, u, v)
                x_tables[(u, v)] = s
                y_tables[(u, v)] = opposite_constants(s, w0)
        data[name] = {
            "rs": rs,
            "table": table,
            "w0": w0,
            "x": x_tables,
            "y": y_tables,
            "elapsed": time.perf_counter() - start,
        }
    return data


@pytest.fixture(scope="module")
def affine_data():
    rs = builtin_root_system("AffineA1")
    t6 = restriction_table(rs, 6)
    t8 = restriction_table(rs, 8)
    low = [w for w in t6.range if w.length <= 3]
    tables = {
        (u, v): structure_constants(t6, u, v) for u in low for v in low
    }
    return {"rs": rs, "t6": t6, "t8": t8, "low": low, "tables": tables}


# ---------------------------------------------------------------------------
# criterion 1: SL2 ground truth


def test_c1_sl2_ground_truth():
    start = time.perf_counter()
    rs = builtin_root_system("A1")
    table = restriction_table(rs, 1)
    e = identity(rs)
    s = element_from_word(rs, (1,))
    w0 = longest_element(rs)
    alpha = RootPolynomial.variable(1, 1)

    x_ss = structure_constants(table, s, s)
    assert x_ss.values[table.range.index[s]] == alpha
    y_ss = opposite_constants(x_ss, w0)
    assert y_ss.values[table.range.index[s]] == -alpha

    seen = []
    for u, v in itertools.product((e, s), repeat=2):
        x = structure_constants(table, u, v)
        y = opposite_constants(x, w0)
        for t in (x, y):
            for w, p in t.values.items():
                seen.append(((t.basis, u.word, v.word, t.order[w].word), p))
    allowed = {
        RootPolynomial.zero(1).to_text(),
        RootPolynomial.one(1).to_text(),
        alpha.to_text(),
        (-alpha).to_text(),
    }
    for key, p in seen:
        assert p.to_text() in allowed, key
    interesting = [p for _, p in seen if p.to_text() in (alpha.to_text(), (-alpha).to_text())]
    assert len(interesting) == 2

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"SL2 values exact (a=alpha, b=-alpha, rest 0/1) in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: positivity sweeps over finite types


def test_c2_finite_type_positivity(sweeps):
    for name in FINITE_SYSTEMS:
        x_tables = sweeps[name]["x"]
        y_tables = sweeps[name]["y"]
        rs = sweeps[name]["rs"]
        order = len(sweeps[name]["table"].range)
        assert len(x_tables) == order * order
        for s in x_tables.values():
            cert = positivity_certificate(s)
            assert cert.verdict == "pass", (name, s.u, s.v)
            for p in s.values.values():
                assert p.sign_pattern() in ("nonneg", "zero")
        for s in y_tables.values():
            cert = positivity_certificate(s)
            assert cert.verdict == "pass", (name, s.u, s.v)
            for p in s.values.values():
                # nonpositivity in the dichotomy sense: nonnegative
                # coefficients on monomials in the negated simple roots
                assert p.negate_variables().sign_pattern() in ("nonneg", "zero")
    times = {name: round(sweeps[name]["elapsed"], 2) for name in FINITE_SYSTEMS}
    assert sweeps["A3"]["elapsed"] < 300.0
    report(2, f"all pairs certified in A2/B2/G2/A3, both bases; build times {times}")


# ---------------------------------------------------------------------------
# criterion 3: Kac-Moody truncation positivity and stability


def test_c3_kac_moody_positivity_and_stability(affine_data):
    start = time.perf_counter()
    t8 = affine_data["t8"]
    for (u, v), s6 in affine_data["tables"].items():
        assert positivity_certificate(s6).verdict == "pass"
        for p in s6.values.values():
            assert p.sign_pattern() in ("nonneg", "zero")
        s8 = structure_constants(t8, u, v)
        for k in range(len(s6.order)):
            assert s6.values.get(k) == s8.values.get(k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    count = len(affine_data["tables"])
    report(3, f"affine A1: {count} pairs nonnegative, bound 6 == bound 8, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: product identity re-verification plus mutation


def test_c4_product_identity(sweeps, affine_data):
    # criterion 1 tables
    rs1 = builtin_root_system("A1")
    t1 = restriction_table(rs1, 1)
    w0 = longest_element(rs1)
    for u in t1.range:
        for v in t1.range:
            s = structure_constants(t1, u, v)
            assert verify_product_identity(t1, s)
            assert verify_product_identity(t1, opposite_constants(s, w0))

    # criterion 2 tables; y-tables are checked against the transported
    # restriction values, which is the identity they satisfy
    checked = 0
    for name in FINITE_SYSTEMS:
        table = sweeps[name]["table"]
        matrix = sweeps[name]["w0"].matrix
        transported = RestrictionTable(
            table.range,
            {
                v: {w: p.apply_linear(matrix) for w, p in column.items()}
                for v, column in table.columns.items()
            },
            table.rows_at,
        )
        for s in sweeps[name]["x"].values():
            assert verify_product_identity(table, s), (name, s.u, s.v)
            checked += 1
        for s in sweeps[name]["y"].values():
            proxy = StructureTable(transported.range.rs, "x", s.u, s.v, s.values, s.order)
            assert verify_product_identity(transported, proxy), (name, s.u, s.v)
            checked += 1

    # criterion 3 tables
    t6 = affine_data["t6"]
    for s in affine_data["tables"].values():
        assert verify_product_identity(t6, s)
        checked += 1

    # mutation: a single +1 on one coefficient must be caught
    rs = sweeps["A2"]["rs"]
    table = sweeps["A2"]["table"]
    s1 = element_from_word(rs, (1,))
    good = structure_constants(table, s1, s1)
    values = dict(good.values)
    k = table.range.index[s1]
    values[k] = values[k] + RootPolynomial.one(2)
    mutated = StructureTable(table.range.rs, "x", s1, s1, values, good.order)
    check = verify_product_identity(table, mutated)
    assert not check and check.failing is not None

    y_good = sweeps["A2"]["y"][(s1, s1)]
    y_values = dict(y_good.values)
    y_values[k] = y_values[k] + RootPolynomial.one(2)
    y_mutated = StructureTable(table.range.rs, "y", s1, s1, y_values, y_good.order)
    assert not verify_product_identity(table, y_mutated)

    report(4, f"identity re-verified for {checked} tables; mutations detected")


# ---------------------------------------------------------------------------
# criterion 5: localization properties


def test_c5_localization_properties():
    start = time.perf_counter()
    systems = [
        builtin_root_system("A2"),
        builtin_root_system("B2"),
        builtin_root_system("G2"),
        builtin_root_system("AffineA1"),
    ]
    for rs in systems:
        table = restriction_table(rs, 5)
        rng = table.range
        for a, w in enumerate(rng):
            for b, v in enumerate(rng):
                p = table.value(w, v)
                if a not in rng.leq[b]:
                    assert p.is_zero()
                assert p.is_homogeneous_of(w.length)
        for w in rng:
            assert table.value(w, w) == inversion_product(w)
        for v in rng:
            for word in all_reduced_words(v):
                for w in rng:
                    assert billey_restrict(rs, w, v, reduced_word=word) == table.value(w, v)
        if rs.kind == "finite":
            from eqschub import simple_reflection

            for i in range(1, rs.rank + 1):
                si = simple_reflection(rs, i)
                omega = rs.fundamental_weights[i - 1]
                for v in rng:
                    expected = [a - b for a, b in zip(omega, mat_vec(v.matrix, omega))]
                    assert all(c.denominator == 1 for c in expected)
                    assert table.value(si, v) == RootPolynomial.from_linear(rs.rank, expected)
    elapsed = time.perf_counter() - start
    report(5, f"support/homogeneity/diagonal/word-independence/closed-form, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 6: numeric positivity on the positive cone


def test_c6_numeric_positivity(sweeps):
    start = time.perf_counter()
    rng = random.Random(2024)
    points_by_rank = {}
    for name in FINITE_SYSTEMS:
        rank = sweeps[name]["rs"].rank
        if rank not in points_by_rank:
            points_by_rank[rank] = [
                tuple(
                    Fraction(rng.randint(1, 24), rng.randint(1, 8))
                    for _ in range(rank)
                )
                for _ in range(100)
            ]
    for name in FINITE_SYSTEMS:
        rank = sweeps[name]["rs"].rank
        for s in sweeps[name]["x"].values():
            for nu in points_by_rank[rank]:
                for value in billey_evaluate(s, nu):
                    assert value >= 0
    elapsed = time.perf_counter() - start
    report(6, f"100 positive rational points, all evaluations >= 0, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 7: ordinary-cohomology oracle
#
# Independent implementation: Schubert polynomials built by divided
# differences from the staircase monomial, products expanded by applying
# the divided-difference operator of each target permutation.


def _compose(f, g):
    return tuple(f[x] for x in g)


def _transposition(n, i):
    t = list(range(n))
    t[i - 1], t[i] = t[i], t[i - 1]
    return tuple(t)


def _perm_of_word(word, n):
    acc = tuple(range(n))
    for letter in word:
        acc = _compose(acc, _transposition(n, letter))
    return acc


def _inv_count(p):
    return sum(1 for a, b in itertools.combinations(p, 2) if a > b)


def _perm_reduced_word(p):
    p = list(p)
    out = []
    while True:
        i = next((j for j in range(len(p) - 1) if p[j] > p[j + 1]), None)
        if i is None:
            break
        p[i], p[i + 1] = p[i + 1], p[i]
        out.append(i + 1)
    return tuple(reversed(out))


def _poly_sub(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def _ddiff(p, i, n):
    """(p - s_i p) / (x_i - x_{i+1}), termwise on exponent dictionaries."""
    out = {}
    for exp, c in p.items():
        a, b = exp[i - 1], exp[i]
        if a == b:
            continue
        lo, hi, sign = (b, a, 1) if a > b else (a, b, -1)
        for j in range(hi - lo):
            k = list(exp)
            k[i - 1], k[i] = hi - 1 - j, lo + j
            k = tuple(k)
            s = out.get(k, 0) + sign * c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def _schubert_polynomials(n, top=None):
    """The polynomial of each permutation of n, by divided differences from
    ``top`` at the longest one: by default the staircase monomial, which
    gives the Schubert polynomials."""
    perms = sorted(itertools.permutations(range(n)), key=_inv_count, reverse=True)
    staircase = tuple(n - 1 - i for i in range(n))
    table = {perms[0]: top or {staircase: 1}}
    for w in perms:
        p = table[w]
        for i in range(1, n):
            if w[i - 1] > w[i]:
                shorter = list(w)
                shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
                shorter = tuple(shorter)
                if shorter not in table:
                    table[shorter] = _ddiff(p, i, n)
    return table


def _oracle_constant(schuberts, n, u, v, w):
    """Coefficient of the w-indexed basis element in the (u, v) product."""
    if _inv_count(w) != _inv_count(u) + _inv_count(v):
        return 0
    p = _poly_mul(schuberts[u], schuberts[v])
    for letter in reversed(_perm_reduced_word(w)):
        p = _ddiff(p, letter, n)
    if not p:
        return 0
    assert set(p) == {(0,) * n}, "operator did not reduce to a constant"
    return p[(0,) * n]


def test_c7_schubert_polynomial_oracle(sweeps):
    start = time.perf_counter()
    # classical S_3 table pins the oracle itself
    s3 = _schubert_polynomials(3)
    assert s3[(0, 2, 1)] == {(1, 0, 0): 1, (0, 1, 0): 1}
    assert s3[(1, 0, 2)] == {(1, 0, 0): 1}
    assert s3[(1, 2, 0)] == {(1, 1, 0): 1}
    assert s3[(2, 0, 1)] == {(2, 0, 0): 1}
    assert s3[(0, 1, 2)] == {(0, 0, 0): 1}

    for name, n in (("A2", 3), ("A3", 4)):
        schuberts = _schubert_polynomials(n)
        for (u, v), s in sweeps[name]["x"].items():
            pu = _perm_of_word(u.word, n)
            pv = _perm_of_word(v.word, n)
            zero = RootPolynomial.zero(s.rs.rank)
            for k, w in enumerate(s.order):
                pw = _perm_of_word(w.word, n)
                expected = _oracle_constant(schuberts, n, pu, pv, pw)
                assert expected >= 0
                assert s.values.get(k, zero).evaluate([0] * s.rs.rank) == expected, (u, v, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"A2 and A3 constant terms match the Schubert oracle, {elapsed:.2f}s")


# Equivariant oracle: the double Schubert polynomials S_w(x; y) of
# Lascoux-Schutzenberger, by the same divided differences in x from
# prod_{i+j<=n} (x_i - y_j), on exponents over x_1..x_n, y_1..y_n.  Then
# c_uv^w = d_w(S_u S_v) at x = y, a polynomial in the y_i, which a value
# in the simple roots matches under a_i = y_{i+1} - y_i.  It reads no
# restriction table, Bruhat order or recurrence, so it checks every
# coefficient, not only the constant terms, outside localization.


def _unit(m, i):
    return tuple(1 if j == i else 0 for j in range(m))


def _double_schubert_polynomials(n):
    top = {(0,) * (2 * n): 1}
    for i in range(n - 1):
        for j in range(n - 1 - i):
            top = _poly_mul(top, {_unit(2 * n, i): 1, _unit(2 * n, n + j): -1})
    return _schubert_polynomials(n, top)


def _double_oracle_constants(doubles, n, u, v, ws):
    """c_uv^w in y_1..y_n for each w of ``ws``: d_w(S_u S_v), along w's
    reversed reduced word as ``_oracle_constant`` applies it, then x = y.
    The operators applied so far are shared between the w."""
    done = {(): _poly_mul(doubles[u], doubles[v])}
    out = []
    for w in ws:
        letters = tuple(reversed(_perm_reduced_word(w)))
        for j in range(1, len(letters) + 1):
            if letters[:j] not in done:
                done[letters[:j]] = _ddiff(done[letters[:j - 1]], letters[j - 1], n)
        value = {}
        for exp, c in done[letters].items():
            k = tuple(a + b for a, b in zip(exp[:n], exp[n:]))
            value[k] = value.get(k, 0) + c
        out.append({k: c for k, c in value.items() if c})
    return out


def _in_y(poly, n):
    """A value in a_1..a_{n-1} as a polynomial in y_1..y_n, a_i = y_{i+1} - y_i."""
    roots = [{_unit(n, i + 1): 1, _unit(n, i): -1} for i in range(n - 1)]
    out = {}
    for exp, c in poly.sorted_terms():
        term = {(0,) * n: -c}
        for root, e in zip(roots, exp):
            for _ in range(e):
                term = _poly_mul(term, root)
        out = _poly_sub(out, term)
    return out


def test_c7_double_schubert_oracle(sweeps):
    start = time.perf_counter()
    # S_3 by hand pins the oracle: S_{s1} = x1 - y1, S_{s2} = x1 + x2 - y1 - y2,
    # S_{w0} = (x1 - y1)(x1 - y2)(x2 - y1), and c_{s1,s1}^{s1} = y2 - y1 = a1.
    d3 = _double_schubert_polynomials(3)
    x1, x2, y1, y2 = ({_unit(6, i): 1} for i in (0, 1, 3, 4))
    assert d3[(1, 0, 2)] == _poly_sub(x1, y1)
    assert d3[(0, 2, 1)] == {
        (1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0): -1, (0, 0, 0, 0, 1, 0): -1,
    }
    assert d3[(2, 1, 0)] == _poly_mul(
        _poly_mul(_poly_sub(x1, y1), _poly_sub(x1, y2)), _poly_sub(x2, y1)
    )
    assert d3[(0, 1, 2)] == {(0,) * 6: 1}
    s1 = (1, 0, 2)
    (a1,) = _double_oracle_constants(d3, 3, s1, s1, [s1])
    assert a1 == {(0, 1, 0): 1, (1, 0, 0): -1}
    assert _in_y(RootPolynomial.from_linear(2, (1, 0)), 3) == a1

    checked = 0
    for name, n in (("A2", 3), ("A3", 4)):
        doubles = _double_schubert_polynomials(n)
        elements = sweeps[name]["table"].range.elements
        perms = {w: _perm_of_word(w.word, n) for w in elements}
        zero = RootPolynomial.zero(n - 1)
        for a, u in enumerate(elements):
            for v in elements[a:]:
                s = sweeps[name]["x"][(u, v)]
                expected = _double_oracle_constants(
                    doubles, n, perms[u], perms[v], [perms[w] for w in s.order]
                )
                for k, w in enumerate(s.order):
                    assert _in_y(s.values.get(k, zero), n) == expected[k], (u, v, w)
                    checked += 1

    # Three seeded pairs of the whole of A4, every w up to l(u) + l(v).
    a4 = build_root_system(CartanMatrix(
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    ))
    table = restriction_table(a4, 10)
    doubles = _double_schubert_polynomials(5)
    elements = table.range.elements
    zero = RootPolynomial.zero(4)
    draw = random.Random(22)
    for _ in range(3):
        u, v = draw.choice(elements), draw.choice(elements)
        s = structure_constants(table, u, v)
        # mult's own table, which holds at each point only the rows read there.
        pair = structure_constants(pair_table(table.range, u, v), u, v)
        assert pair.order == s.order
        expected = _double_oracle_constants(
            doubles, 5, _perm_of_word(u.word, 5), _perm_of_word(v.word, 5),
            [_perm_of_word(w.word, 5) for w in s.order],
        )
        for k, w in enumerate(s.order):
            assert _in_y(s.values.get(k, zero), 5) == expected[k], (u, v, w)
            assert _in_y(pair.values.get(k, zero), 5) == expected[k], (u, v, w)
            checked += 1
    elapsed = time.perf_counter() - start
    report(7, f"{checked} A2, A3 and A4 entries match the double Schubert oracle, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 8: determinism and parallel equivalence


def test_c8_determinism_and_jobs(tmp_path):
    import io

    from eqschub.cli import main

    def run(argv):
        buf = io.StringIO()
        code = main(argv, out=buf)
        return code, buf.getvalue()

    base = ["sweep", "--type", "A2", "--max-length", "3", "--format", "json"]
    code1, out1 = run(base + ["--jobs", "1"])
    code2, out2 = run(base + ["--jobs", "1"])
    code3, out3 = run(base + ["--jobs", "2"])
    code4, out4 = run(base + ["--jobs", "3"])
    assert code1 == code2 == code3 == code4 == 0
    assert out1 == out2 == out3 == out4

    cache1 = str(tmp_path / "one.jsonl")
    cache2 = str(tmp_path / "two.jsonl")
    run(["sweep", "--type", "B2", "--max-length", "4", "--cache", cache1, "--jobs", "1"])
    run(["sweep", "--type", "B2", "--max-length", "4", "--cache", cache2, "--jobs", "2"])
    with open(cache1) as fh1, open(cache2) as fh2:
        assert fh1.read() == fh2.read()
    report(8, "sweep output byte-identical across reruns and --jobs 1/2/3")
