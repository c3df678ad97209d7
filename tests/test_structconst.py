"""Chevalley recurrence (against the triangular oracle), opposite basis,
certificates, numeric evaluation."""

import itertools
import json
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from eqschub import (
    CartanMatrix,
    DomainViolation,
    InsufficientBound,
    RootPolynomial,
    StructureTable,
    billey_evaluate,
    build_root_system,
    builtin_root_system,
    element_from_word,
    identity,
    inverse,
    longest_element,
    opposite_constants,
    positivity_certificate,
    restriction_table,
    structure_constants,
    verify_product_identity,
)
from eqschub.localize import RestrictionTable
from eqschub.rootsys import GENERAL
from eqschub import structconst
from eqschub.structconst import (
    _recurrence,
    column_constants,
    pair_table,
    record_text,
    terms_sign_ok,
    text_lines,
)
from eqschub.weyl import inversion_coords

from conftest import (
    affine_a_cartan,
    certificate_dict,
    held_rows,
    mat_vec,
    record_dict,
    right_descents,
    triangular_constants,
)

A1 = builtin_root_system("A1")
A2 = builtin_root_system("A2")
B2 = builtin_root_system("B2")
A3 = builtin_root_system("A3")
G2 = builtin_root_system("G2")
AFF = builtin_root_system("AffineA1")
AFF_A2 = build_root_system(CartanMatrix(affine_a_cartan(2)), GENERAL)
# Hyperbolic: deleting any one node leaves a finite or affine diagram.
HYP3 = build_root_system(CartanMatrix(((2, -2, 0), (-2, 2, -1), (0, -1, 2))), GENERAL)

T_A1 = restriction_table(A1, 1)
T_A2 = restriction_table(A2, 3)
T_B2 = restriction_table(B2, 4)


def poly(rank, terms):
    return RootPolynomial(rank, terms)


def corrupted(table, w, v, value):
    """A copy of the whole ``table`` whose value at the ids (w, v) is ``value``."""
    columns = {b: dict(column) for b, column in table.columns.items()}
    columns[v][w] = value
    return RestrictionTable(table.range, columns, table.rows_at)


# ---------------------------------------------------------------------------
# ground truth


def test_a1_diagonal_pair():
    s = element_from_word(A1, (1,))
    table = structure_constants(T_A1, s, s)
    index = T_A1.range.index
    assert table.values[index[s]] == poly(1, {(1,): 1})
    assert index[identity(A1)] not in table.values


def test_identity_pair_gives_unit_row():
    for t in (T_A1, T_A2, T_B2):
        e = identity(t.range.rs)
        for v in t.range:
            table = structure_constants(t, e, v)
            assert set(table.order) == {w for w in t.range if w.length <= v.length}
            zero = RootPolynomial.zero(t.range.rs.rank)
            for k, w in enumerate(table.order):
                expected = RootPolynomial.one(t.range.rs.rank) if w == v else zero
                assert table.values.get(k, zero) == expected


def test_a2_s1_squared():
    s1 = element_from_word(A2, (1,))
    table = structure_constants(T_A2, s1, s1)
    index = T_A2.range.index
    assert table.values[index[s1]] == poly(2, {(1, 0): 1})
    w12 = element_from_word(A2, (1, 2))
    w21 = element_from_word(A2, (2, 1))
    assert index[w12] not in table.values
    assert table.values[index[w21]] == RootPolynomial.one(2)


def test_degree_one_products_match_chevalley_values():
    """Hand-computed coroot pairings for the non-simply-laced types.

    With alpha_1 the long root, <omega_1, beta_vee> = 1 for beta the
    reflection root linking s2 to s1s2, so both length-2 coefficients of
    x_{s1} x_{s2} are 1, while x_{s2}^2 picks up only the s1s2 branch.
    """
    for name in ("B2", "G2"):
        system = builtin_root_system(name)
        t = restriction_table(system, len(system.positive_roots))
        s1 = element_from_word(system, (1,))
        s2 = element_from_word(system, (2,))
        one = RootPolynomial.one(2)
        alpha2 = RootPolynomial.variable(2, 2)
        prod = structure_constants(t, s1, s2)
        assert {prod.order[w].word: p for w, p in prod.values.items()} == {
            (1, 2): one,
            (2, 1): one,
        }
        sq = structure_constants(t, s2, s2)
        assert {sq.order[w].word: p for w, p in sq.values.items()} == {
            (2,): alpha2,
            (1, 2): one,
        }


def test_insufficient_bound_for_truncated_range():
    table = restriction_table(AFF, 3)
    u = element_from_word(AFF, (1, 2))
    with pytest.raises(InsufficientBound):
        structure_constants(table, u, u)
    uid = table.range.index[u]
    with pytest.raises(InsufficientBound):
        column_constants(table, uid, [uid])
    # u or v longer than the bound, so without an id: refused before
    # either is looked up.
    longer = element_from_word(AFF, (1, 2, 1, 2))
    for a, b in ((longer, u), (u, longer)):
        with pytest.raises(InsufficientBound):
            structure_constants(table, a, b)


def test_complete_range_allows_any_pair():
    # A1 has bound 1 but the range is the whole group.
    s = element_from_word(A1, (1,))
    assert structure_constants(T_A1, s, s).values[T_A1.range.index[s]] == poly(1, {(1,): 1})


def test_solver_rejects_foreign_elements():
    """Element equality compares the kind as well as the Cartan matrix, so
    an element of A2's matrix built as "general" is as foreign to a finite
    A2 table as one of B2: a RankMismatch, not a failed lookup."""
    from eqschub import RankMismatch

    b2 = element_from_word(B2, (1,))
    general = element_from_word(build_root_system(A2.cartan, GENERAL), (1,))
    for u, v in ((b2, b2), (general, general), (general, element_from_word(A2, (1,)))):
        with pytest.raises(RankMismatch):
            structure_constants(T_A2, u, v)


def test_solver_aborts_on_corrupted_diagonal():
    """A diagonal value that is not a product of linear forms is an
    internal inconsistency (here xi^s(s), the base case c_ss^s, which the
    recurrence refuses unless it is homogeneous of degree one)."""
    from eqschub import InternalInconsistency

    s = element_from_word(A1, (1,))
    k = T_A1.range.index[s]
    bad = corrupted(T_A1, k, k, poly(1, {(1,): 1, (0,): 1}))
    with pytest.raises(InternalInconsistency):
        structure_constants(bad, s, s)
    s1 = element_from_word(A2, (1,))
    k = T_A2.range.index[s1]
    bad = corrupted(T_A2, k, k, poly(2, {(1, 1): 1}))
    with pytest.raises(InternalInconsistency, match=r"w=1\) is not homogeneous of degree 1"):
        structure_constants(bad, s1, s1)


def test_recurrence_aborts_on_corrupted_base_case():
    """With u = v = w0 the base case c_uv^u = xi^v(u) is the only value, so
    only its degree check can refuse a corrupted diagonal there."""
    from eqschub import InternalInconsistency

    w0 = longest_element(A2)
    k = T_A2.range.index[w0]
    bad = corrupted(T_A2, k, k, T_A2.columns[k][k] + RootPolynomial.one(2))
    with pytest.raises(InternalInconsistency):
        structure_constants(bad, w0, w0)


def test_solver_aborts_on_nonzero_numerator_at_skipped_element():
    """The triangular oracle refuses a table whose numerator does not vanish
    where the support condition skips w; a verified table never has one."""
    from eqschub import InternalInconsistency

    s = element_from_word(A1, (1,))
    e = identity(A1)
    bad = corrupted(T_A1, T_A1.range.index[s], T_A1.range.index[e], RootPolynomial.one(1))
    with pytest.raises(InternalInconsistency):
        triangular_constants(bad, s, s)


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize(
    "table,max_total",
    [(T_A2, None), (T_B2, None)],
)
def test_symmetry_support_degree_finite(table, max_total):
    rng = table.range
    for u in rng:
        for v in rng:
            s_uv = structure_constants(table, u, v)
            s_vu = structure_constants(table, v, u)
            assert s_uv.values == s_vu.values
            total = u.length + v.length
            for w, p in s_uv.values.items():
                if not p.is_zero():
                    assert rng.index[u] in rng.leq[w] and rng.index[v] in rng.leq[w]
                    assert p.is_homogeneous_of(total - rng.elements[w].length)


def test_symmetry_affine_to_length_four():
    table = restriction_table(AFF, 4)
    els = [w for w in table.range if w.length <= 2]
    for u in els:
        for v in els:
            assert (
                structure_constants(table, u, v).values
                == structure_constants(table, v, u).values
            )


@pytest.mark.parametrize("rs,k", [(A3, 6), (AFF_A2, 4)], ids=["A3", "AffineA2"])
def test_constants_symmetric_in_u_and_v(rs, k):
    """The sweep solves each unordered pair once; this is what makes that exact."""
    table = restriction_table(rs, k)
    els = table.range.elements
    for a, u in enumerate(els):
        for v in els[a + 1:]:
            if not table.range.complete and u.length + v.length > k:
                continue
            assert (
                structure_constants(table, u, v).values
                == structure_constants(table, v, u).values
            ), (u, v)


def test_affine_constants_stable_under_bound_increase():
    for rs in (AFF, HYP3):
        t4 = restriction_table(rs, 4)
        t6 = restriction_table(rs, 6)
        els = [w for w in t4.range if w.length <= 2]
        for u in els:
            for v in els:
                s4 = structure_constants(t4, u, v)
                s6 = structure_constants(t6, u, v)
                for k in range(len(s4.order)):
                    assert s4.values.get(k) == s6.values.get(k), (rs.descriptor, u, v)


@pytest.mark.parametrize(
    "rs,k",
    [(A3, 6), (B2, 4), (G2, 6), (AFF_A2, 6), (HYP3, 6)],
    ids=["A3", "B2", "G2", "AffineA2", "Hyperbolic3"],
)
def test_parabolic_vanishing(rs, k):
    """For a proper subset J of the letters, if u and v have no right
    descent in J, then neither has any w with c_uv^w nonzero: the product
    of two classes pulled back from G/P_J is pulled back from G/P_J."""
    table = restriction_table(rs, k)
    rng = table.range
    letters = frozenset(range(1, rs.rank + 1))
    subsets = [
        frozenset(J) for r in range(1, rs.rank) for J in itertools.combinations(letters, r)
    ]
    descents = [frozenset(right_descents(w)) for w in rng]
    length = [w.length for w in rng]
    ids = range(len(rng))
    checked = 0
    for v in ids:
        us = [
            u for u in ids
            if (rng.complete or length[u] + length[v] <= k) and descents[u] | descents[v] != letters
        ]
        if not us:
            continue
        for u, s in zip(us, column_constants(table, v, us)):
            free = [J for J in subsets if not J & (descents[u] | descents[v])]
            for w in s.values:
                for J in free:
                    assert not J & descents[w], (s.u, s.v, s.order[w], sorted(J))
                    checked += 1
    assert checked


# ---------------------------------------------------------------------------
# Chevalley recurrence, checked against the triangular oracle


def _assert_columns_match_solver(table, vs, us_of, pair_tables=True):
    """Every column of an id v of ``vs``, at the ids u of ``us_of(v)``, and
    every one-pair ``structure_constants`` of (u, v), equals the triangular
    oracle's constants of (u, v), entry by entry; with ``pair_tables``, so
    do those of (u, v) and of (v, u) on the table ``mult`` builds for each."""
    rng = table.range
    els = rng.elements
    for v in vs:
        us = us_of(v)
        tables = column_constants(table, v, us)
        assert [s.u for s in tables] == [els[u] for u in us]
        for s in tables:
            u = s.u
            expected = triangular_constants(table, u, els[v])
            solved = [s, structure_constants(table, u, els[v])]
            if pair_tables:
                ours = pair_table(rng, u, els[v])
                # Only a tie of lengths gives (v, u) another table.
                theirs = ours if u.length != els[v].length else pair_table(rng, els[v], u)
                solved.append(structure_constants(ours, u, els[v]))
                swapped = structure_constants(theirs, els[v], u)
                assert (swapped.u, swapped.v) == (els[v], u)
                solved.append(swapped)
            for got in solved:
                assert {got.u, got.v} == {u, els[v]}, (u, els[v])
                assert got.order == expected.order, (u, els[v])
                assert got.values == expected.values, (u, els[v])

# Under the convention a[i][j] = <alpha_j, alpha_i^vee>, the long simple
# root of B3 is alpha_1 and that of C3 is alpha_3.
B3_ROWS = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
C3_ROWS = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
B3 = build_root_system(CartanMatrix.from_rows(B3_ROWS))
C3 = build_root_system(CartanMatrix.from_rows(C3_ROWS))


@pytest.mark.parametrize("rs,highest", [(B3, (1, 2, 2)), (C3, (2, 2, 1))], ids=["B3", "C3"])
def test_b3_and_c3_rows_have_their_highest_roots(rs, highest):
    assert max(rs.positive_roots, key=sum) == highest


@pytest.mark.parametrize(
    "rs",
    [A3, B2, builtin_root_system("G2"), B3, C3],
    ids=["A3", "B2", "G2", "B3-cartan", "C3-cartan"],
)
def test_recurrence_matches_solver_on_whole_group(rs):
    table = restriction_table(rs, len(rs.positive_roots))
    n = len(table.range)
    # Columns at and after v in range order: the pairs a sweep computes.
    # Tables per pair would add some 7 s on B3; A3, B2 and G2 have them.
    _assert_columns_match_solver(table, range(n), lambda v: list(range(v, n)),
                                 pair_tables=rs.rank < 3 or rs is A3)


@pytest.mark.parametrize("bound", range(7))
def test_recurrence_matches_solver_on_affine_a2(bound):
    table = restriction_table(AFF_A2, bound)
    swept = [a for a, w in enumerate(table.range) if w.length <= bound // 2]
    # Tables per pair at bound 6 would add some 2 s; the lower bounds have them.
    _assert_columns_match_solver(table, swept, lambda v: swept, pair_tables=bound < 6)


def test_recurrence_matches_solver_on_hyperbolic_rank3():
    table = restriction_table(HYP3, 6)
    swept = [a for a, w in enumerate(table.range) if w.length <= 3]
    # Tables per pair would about double its time; affine A2 has them below bound 6.
    _assert_columns_match_solver(table, swept, lambda v: swept, pair_tables=False)


def test_recurrence_matches_solver_on_seeded_a4_columns():
    a4 = build_root_system(CartanMatrix(
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    ))
    table = restriction_table(a4, len(a4.positive_roots))
    ids = list(range(len(table.range)))
    vs = random.Random(9908172).sample(ids, 2)
    _assert_columns_match_solver(table, vs, lambda v: ids, pair_tables=False)


def test_one_pair_builds_steps_only_above_u(monkeypatch):
    """A one-pair ``structure_constants`` reads the steps of exactly the
    x >= the longer of u and v (u on a tie) up to length l(u) + l(v),
    each once, and the range's memo holds the steps of no other x."""
    a4 = build_root_system(CartanMatrix(
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    ))
    table = restriction_table(a4, len(a4.positive_roots))
    els = table.range.elements
    built = []
    read = set()

    def counted(rng, x):
        built.append(x)
        return _recurrence(rng, x)

    monkeypatch.setattr(structconst, "_recurrence", counted)
    pairs = [(els[1], els[-1]), (els[-1], els[0]), (els[1], els[2]), (els[7], els[7])]
    pairs += [tuple(random.Random(seed).sample(els, 2)) for seed in range(6)]
    for u, v in pairs:
        built.clear()
        structure_constants(table, u, v)
        long = v if v.length > u.length else u
        expected = [
            x for x in reversed(range(len(els)))
            if table.range.index[long] in table.range.leq[x]
            and els[x].length <= u.length + v.length
        ]
        assert built == expected, (u, v)
        read.update(built)
        assert set(table.range.memo("recurrence")) == read, (u, v)


def _swap_cases():
    """Every pair of whole B2 and G2, and 100 seeded pairs of A3 of which
    every third has equal lengths and every tenth u = v."""
    cases = []
    for rs in (B2, G2):
        table = restriction_table(rs, len(rs.positive_roots))
        cases += [(table, u, v) for u in table.range for v in table.range]
    table = restriction_table(A3, 6)
    els = list(table.range)
    rng = random.Random(9908172)
    for k in range(100):
        u = rng.choice(els)
        if k % 10 == 0:
            v = u
        elif k % 3 == 0:
            v = rng.choice([w for w in els if w.length == u.length])
        else:
            v = rng.choice(els)
        cases.append((table, u, v))
    return cases


def test_swapped_pair_gives_the_same_constants_in_the_given_order():
    """c_uv = c_vu: the recurrence walks the x above the longer element of
    the pair whichever comes first, and the table keeps u and v as given."""
    cases = _swap_cases()
    assert any(u == v for _, u, v in cases)
    assert any(u != v and u.length == v.length for _, u, v in cases)
    for table, u, v in cases:
        uv, vu = structure_constants(table, u, v), structure_constants(table, v, u)
        assert uv.values == vu.values, (u, v)
        assert (uv.u, uv.v, vu.u, vu.v) == (u, v, v, u)
        assert uv.order == vu.order


def test_structure_constants_raise_on_a_row_the_table_lacks():
    """Over the lower ideal of s1, with e and the s_i, the table serves the
    pairs whose shorter element (v on a tie) is below s1, and refuses the
    others rather than reading zeros; the linear forms come from the
    range, so the lower ideal of s1 alone serves (s1, s1) too."""
    from eqschub import InternalInconsistency, enumerate_upto

    rng = enumerate_upto(A3, 6)
    whole = restriction_table(A3, 6, rng=rng)
    s1, s2, s1s2, s2s1, s2s1s3 = (
        element_from_word(A3, x) for x in ((1,), (2,), (1, 2), (2, 1), (2, 1, 3))
    )
    rows = rng.leq[rng.index[s1]] | set(range(4))
    table = restriction_table(A3, 6, rng=rng, rows=rows)
    for u, v in ((s1s2, s1), (s1, s1s2), (s2, s1), (s1, s2s1s3), (s1, s1)):
        assert structure_constants(table, u, v).values == structure_constants(whole, u, v).values
    for u, v in ((s1s2, s2s1), (s2s1, s2s1s3), (s2s1s3, s1s2)):
        with pytest.raises(InternalInconsistency, match="does not hold"):
            structure_constants(table, u, v)
    bare = restriction_table(A3, 6, rng=rng, rows=rng.leq[rng.index[s1]])
    assert structure_constants(bare, s1, s1).values == structure_constants(whole, s1, s1).values


def test_structure_constants_raise_on_a_row_held_at_other_points_only():
    """``mult``'s table for (s1 s3, s2 s1) holds the rows s1 and s2 of the
    lower ideal of s2 s1 at some points, but not at every point above s1 s3
    that the pairs (s1 s3, s1) and (s1 s3, s2) read: those are refused,
    not read as zero there."""
    from eqschub import InternalInconsistency, enumerate_upto

    rng = enumerate_upto(A3, 6)
    whole = restriction_table(A3, 6, rng=rng)
    u, v = element_from_word(A3, (1, 3)), element_from_word(A3, (2, 1))
    table = pair_table(rng, u, v)
    for x in (v, identity(A3)):
        assert structure_constants(table, u, x).values == structure_constants(whole, u, x).values
    for x in (element_from_word(A3, (1,)), element_from_word(A3, (2,))):
        assert table.holds(rng.index[x])
        with pytest.raises(InternalInconsistency, match=f"does not hold row {rng.index[x]} at"):
            structure_constants(table, u, x)


@pytest.mark.parametrize("rs,k", [(A3, 6), (AFF_A2, 6)], ids=["A3", "AffineA2"])
def test_lower_ideal_alone_serves_every_pair_it_holds_the_shorter_row_of(rs, k):
    """A table over the rows of the lower ideal of v alone, at every point,
    serves ``structure_constants`` for each (u, v) with v the shorter
    element (or as long as u), and gives the whole table's constants."""
    whole = restriction_table(rs, k)
    rng = whole.range
    for v in rng:
        table = restriction_table(rs, k, rng=rng, rows=rng.leq[rng.index[v]])
        for u in rng:
            if v.length <= u.length and u.length + v.length <= k:
                s = structure_constants(table, u, v)
                assert s.values == structure_constants(whole, u, v).values, (u, v)


def test_verify_product_identity_raises_on_a_row_the_table_lacks():
    """The identity reads the rows of u, v and every w with a constant, so a
    table over the lower ideal of the shorter element cannot check it."""
    from eqschub import InternalInconsistency, enumerate_upto

    rng = enumerate_upto(B2, 4)
    whole = restriction_table(B2, 4, rng=rng)
    u, v = element_from_word(B2, (1, 2)), element_from_word(B2, (1,))
    table = restriction_table(B2, 4, rng=rng, rows=rng.leq[rng.index[v]])
    s = structure_constants(table, u, v)
    assert s.values == structure_constants(whole, u, v).values
    assert verify_product_identity(whole, s)
    with pytest.raises(InternalInconsistency, match="does not hold"):
        verify_product_identity(table, s)


@pytest.mark.parametrize(
    "rs,bound", [(A3, 12), (B2, 8), (G2, 12), (AFF_A2, 6)], ids=["A3", "B2", "G2", "AffineA2"]
)
def test_held_range_serves_the_steps_a_fresh_range_builds(monkeypatch, rs, bound):
    """The steps, covers_up and covers_down a column reads for a pair over
    the held range, whose memo the queries of the pairs before it filled,
    cut to the ids up to length l(u) + l(v), equal those it reads over a
    fresh range: on every pair of A3, B2 and G2, and every pair of affine
    A2 with l(u) + l(v) <= 6.  A pair whose u is the longer reads what
    (v, u) reads, so u runs over the others."""
    import eqschub.cli as cli

    recorded = {}
    top = 0

    def record(rng, x):
        steps, covers_up, covers_down = read = _recurrence(rng, x)
        n = bisect_right(rng.lengths, top)
        recorded[x] = (
            [step for step in steps if step[0] < n],
            [[(w, k) for w, k in covers if w < n] for covers in covers_up],
            covers_down,
        )
        return read

    def reads(rng, u, v):
        nonlocal top
        top = u.length + v.length
        recorded.clear()
        structure_constants(pair_table(rng, u, v), u, v)
        return dict(recorded)

    monkeypatch.setattr(structconst, "_recurrence", record)
    cli.clear_setup()
    held = cli.weyl_range(rs, bound)
    pairs = [(u, v) for u in held for v in held if u.length <= v.length <= bound - u.length]
    try:
        for u, v in pairs:
            cli.clear_setup()
            fresh = reads(cli.weyl_range(rs, u.length + v.length), u, v)
            assert reads(held, u, v) == fresh, (u, v)
    finally:
        cli.clear_setup()
    assert held.memo("recurrence")


@pytest.mark.parametrize(
    "rs,count", [(AFF_A2, 442), (HYP3, 315)], ids=["AffineA2", "Hyperbolic3"]
)
def test_recurrence_memo_rebuilds_an_entry_only_for_a_longer_range(monkeypatch, rs, count):
    """The range keeps one entry of steps per id, built on the first read
    and served as it is to every later query, whatever its bound; only a
    longer range, enumerated anew, builds the id's entry again.  Every pair
    (u, v) with l(u) <= l(v) and l(u) + l(v) <= 6, run through one held
    range (``cli.weyl_range``) first in rising and then in falling
    l(u) + l(v), has the constants it has over a fresh range, and each id's
    entry that a shorter query built is the one a longer query reads."""
    import eqschub.cli as cli
    from eqschub import enumerate_upto

    def constants(rng, u, v):
        return structure_constants(pair_table(rng, u, v), u, v).values

    bound = 6
    els = enumerate_upto(rs, bound).elements
    pairs = [(u, v) for u in els for v in els if u.length <= v.length <= bound - u.length]
    assert len(pairs) == count
    fresh = {(u, v): constants(enumerate_upto(rs, u.length + v.length), u, v) for u, v in pairs}
    rising = sorted(pairs, key=lambda pair: pair[0].length + pair[1].length)
    # The entry each id's first read returned, and the l(u) + l(v) of that read.
    first = {}
    top = 0
    longer_reads = 0

    def read(rng, x):
        nonlocal longer_reads
        entry = _recurrence(rng, x)
        kept, built_at = first.setdefault(x, (entry, top))
        assert entry is kept, x
        longer_reads += top > built_at
        return entry

    monkeypatch.setattr(structconst, "_recurrence", read)
    cli.clear_setup()
    try:
        held = cli.weyl_range(rs, bound)
        for order in (rising, rising[::-1]):
            for u, v in order:
                top = u.length + v.length
                assert cli.weyl_range(rs, top) is held
                assert constants(held, u, v) == fresh[u, v], (u, v)
        assert longer_reads and held.memo("recurrence").keys() == first.keys()
        longer = cli.weyl_range(rs, bound + 1)
        assert longer is not held and not longer.memo("recurrence")
    finally:
        cli.clear_setup()


@pytest.mark.parametrize(
    "rs,bound", [(A3, 6), (G2, 6), (AFF_A2, 6)], ids=["A3", "G2", "AffineA2"]
)
def test_restriction_store_serves_what_a_fresh_range_builds(rs, bound):
    """A range keeps the restriction entries its tables computed and
    serves them to later tables.  On every pair of A3 and G2, and every
    pair of affine A2 with l(u) + l(v) <= 6, each table ``mult`` reads,
    and its constants, built over one range in increasing and then in
    decreasing pair order, as ``mult`` reads it up to l(u) + l(v), equal
    those built over a fresh range: the store serves no stale entry."""
    from eqschub import enumerate_upto

    def built(rng, u, v):
        table = pair_table(rng, u, v)
        return table.rows_at, table.columns, structure_constants(table, u, v).values

    els = enumerate_upto(rs, bound).elements
    pairs = [(u, v) for u in els for v in els if u.length + v.length <= bound or rs.kind != GENERAL]
    fresh = {(u, v): built(enumerate_upto(rs, u.length + v.length), u, v) for u, v in pairs}
    for order in (pairs, pairs[::-1]):
        rng = enumerate_upto(rs, bound)
        for u, v in order:
            assert built(rng, u, v) == fresh[u, v], (u, v)
        assert rng.memo("restrictions")


def test_structure_constants_raise_on_a_point_the_table_lacks():
    """A column reads every x above the longer element up to l(u) + l(v);
    a table that leaves one out is refused, not read as zero there."""
    from eqschub import InternalInconsistency, enumerate_upto

    rng = enumerate_upto(A3, 6)
    u, v = element_from_word(A3, (1,)), element_from_word(A3, (2, 3))
    whole = pair_table(rng, u, v)
    rows = held_rows(whole)
    points = set(whole.rows_at) - rows
    top = max(points, key=lambda b: rng.elements[b].length)
    assert rng.elements[top].length == 3
    table = restriction_table(A3, 6, rng=rng, rows=rows, points=points - {top})
    assert not table.holds_point(top)
    assert structure_constants(whole, u, v).values == structure_constants(
        restriction_table(A3, 6), u, v).values
    with pytest.raises(InternalInconsistency, match="does not hold point"):
        structure_constants(table, u, v)


def test_verify_product_identity_raises_on_a_point_table():
    """The identity is checked at every point of the range, so a table
    holding only some points, as ``mult``'s does, cannot check it."""
    from eqschub import InternalInconsistency, enumerate_upto

    rng = enumerate_upto(B2, 4)
    whole = restriction_table(B2, 4, rng=rng)
    u, v = element_from_word(B2, (1, 2)), element_from_word(B2, (1,))
    table = pair_table(rng, u, v)
    assert len(table.rows_at) < len(rng)
    s = structure_constants(table, u, v)
    assert s.values == structure_constants(whole, u, v).values
    assert verify_product_identity(whole, s)
    with pytest.raises(InternalInconsistency, match="holds some"):
        verify_product_identity(table, s)


def test_chevalley_integers_match_hand_values():
    """The gcd integers c_{s_i,u}^x the range keeps, against the hand values of
    ``test_degree_one_products_match_chevalley_values`` and against the
    oracle's degree-one products x_{s_i} x_u on every element u."""
    for name in ("B2", "G2"):
        system = builtin_root_system(name)
        t = restriction_table(system, len(system.positive_roots))
        els = t.range.elements
        reads = [_recurrence(t.range, x) for x in range(len(els))]

        def integers(u, i):
            return {els[x].word: k for x, k in reads[u][1][i]}

        s2 = t.range.index[element_from_word(system, (2,))]
        assert integers(s2, 0) == {(1, 2): 1, (2, 1): 1}
        assert integers(s2, 1) == {(1, 2): 1}
        for u in range(len(els)):
            for i in range(system.rank):
                s_i = element_from_word(system, (i + 1,))
                product = triangular_constants(t, s_i, els[u])
                expected = {
                    els[w].word: p
                    for w, p in product.values.items()
                    if els[w].length == els[u].length + 1
                }
                assert {
                    word: RootPolynomial.constant(2, k) for word, k in integers(u, i).items()
                } == expected, (name, els[u], i)
                for x, k in reads[u][1][i]:
                    assert (u, k) in reads[x][2][i]


@pytest.mark.parametrize(
    "rs",
    [A3, B2, B3, C3, G2],
    ids=["A3", "B2", "B3-cartan", "C3-cartan", "G2"],
)
def test_chevalley_integers_are_coroot_pairings(rs):
    """The range's integer c_{s_i,y}^w for every cover y < w of the whole
    group equals <omega_i, beta^vee>, read off the fundamental weights: with
    s_beta = y^{-1} w, omega_i - s_beta(omega_i) = <omega_i, beta^vee> beta.
    The gcd route of ``_recurrence`` is not used; a zero integer is in
    neither ``covers_up`` nor ``covers_down``."""
    table = restriction_table(rs, len(rs.positive_roots))
    rng = table.range
    els = rng.elements
    reads = [_recurrence(rng, x) for x in range(len(els))]
    covers = 0
    for w, above in enumerate(els):
        for y in rng.leq[w]:
            if els[y].length + 1 != above.length:
                continue
            reflection = element_from_word(rs, inverse(els[y]).word + above.word).matrix
            beta = next(
                r for r in rs.positive_roots if mat_vec(reflection, r) == tuple(-c for c in r)
            )
            j = next(j for j, c in enumerate(beta) if c)
            for i, omega in enumerate(rs.fundamental_weights):
                diff = tuple(a - b for a, b in zip(omega, mat_vec(reflection, omega)))
                k = Fraction(diff[j], beta[j])
                assert k.denominator == 1 and k >= 0, (els[y], above, i)
                assert diff == tuple(k * c for c in beta)
                up = dict(reads[y][1][i])
                down = dict(reads[w][2][i])
                if k:
                    assert up[w] == k and down[y] == k, (els[y], above, i)
                else:
                    assert w not in up and y not in down, (els[y], above, i)
            covers += 1
    assert covers


def test_chevalley_integers_are_computed_once_per_cover(monkeypatch):
    """The range keeps the integers of each cover y < w, so over every id
    of whole B3 ``_recurrence`` takes one gcd per nonzero integer of each
    cover, and the covers up from y and down from w read the same one."""
    from eqschub import enumerate_upto

    rng = enumerate_upto(B3, 9)
    calls = []
    monkeypatch.setattr(structconst, "gcd", lambda *diff: calls.append(diff) or math.gcd(*diff))
    reads = [_recurrence(rng, x) for x in range(len(rng))]
    memo = rng.memo("chevalley integers")
    lengths = rng.lengths
    assert set(memo) == {
        (y, w) for w in range(len(rng)) for y in rng.leq[w] if lengths[y] + 1 == lengths[w]
    }
    assert len(calls) == sum(len(integers) for integers in memo.values())
    for (y, w), integers in memo.items():
        assert integers
        for i, k in integers:
            assert (w, k) in reads[y][1][i] and (y, k) in reads[w][2][i]


def test_a_negative_chevalley_difference_is_refused_on_every_read():
    """A cover whose difference of xi^{s_i} has a negative coefficient is
    an InternalInconsistency, raised again on a later read: the range
    keeps nothing for it."""
    from eqschub import InternalInconsistency, enumerate_upto

    rng = enumerate_upto(A2, 3)
    # xi^{s_1} at e made 2 alpha_1, so at s_1 minus at e is -alpha_1.
    rng.xi[0] = ((2, 0), (0, 0))
    for _ in range(2):
        with pytest.raises(
            InternalInconsistency,
            match=r"^xi\^s1 at WeylElement\(1\) minus at WeylElement\(e\)"
            " has a negative coefficient$",
        ):
            _recurrence(rng, 0)
    assert not rng.memo("chevalley integers") and not rng.memo("recurrence")


@pytest.mark.parametrize(
    "rs,bound",
    [(A3, 6), (B3, 9), (G2, 6), (AFF_A2, 6), (HYP3, 7)],
    ids=["A3", "B3-cartan", "G2", "AffineA2", "hyperbolic-rank3"],
)
def test_recurrence_letter_has_the_fewest_term_divisor(rs, bound):
    """The letter the range memoises for every pair x < w is the one among
    those separating x and w whose divisor xi^{s_i}(w) - xi^{s_i}(x), read
    off the restriction table rather than the range's ``xi``, has the fewest
    terms, the smallest such letter on a tie; its divisor is that
    difference.  On each type some pair's letter is not the smallest
    separating one."""
    table = restriction_table(rs, bound)
    rng, columns = table.range, table.columns
    zero = RootPolynomial.zero(rs.rank)
    simple = [rng.index[element_from_word(rs, (i + 1,))] for i in range(rs.rank)]
    steps = [{w: (i, divisor) for w, i, divisor in _recurrence(rng, x)[0]} for x in range(len(rng))]
    pairs = moved = 0
    for w in range(len(rng)):
        for x in rng.leq[w] - {w}:
            i, divisor = steps[x][w]
            diffs = [columns[w].get(s, zero) - columns[x].get(s, zero) for s in simple]
            separating = [(len(d.terms), j) for j, d in enumerate(diffs) if d.terms]
            assert (len(diffs[i].terms), i) == min(separating), (rng.elements[x], rng.elements[w])
            assert divisor == diffs[i]
            pairs += 1
            moved += i != separating[0][1]
    assert pairs and moved


def _all_constants(table):
    """c[(u, v)]: the sparse id-keyed constants of every pair of ids the
    table holds, one column of the recurrence per v."""
    rng = table.range
    length = [w.length for w in rng]
    ids = range(len(rng))
    c = {}
    for v in ids:
        us = [u for u in ids if rng.complete or length[u] + length[v] <= rng.bound]
        for u, s in zip(us, column_constants(table, v, us)):
            c[u, v] = s.values
    return c


def _triple_product(first, second):
    """The nonzero sums over x of first[x] * second(x)[y], by y."""
    acc: dict = {}
    for x, p in first.items():
        for y, q in second(x).items():
            acc[y] = acc[y] + p * q if y in acc else p * q
    return {y: p for y, p in acc.items() if not p.is_zero()}


@pytest.mark.parametrize(
    "rs,bound,sample",
    [(B2, 4, None), (G2, 6, None), (A3, 6, 150), (AFF_A2, 6, None), (HYP3, 6, None)],
    ids=["B2", "G2", "A3-seeded", "AffineA2", "Hyperbolic3"],
)
def test_associativity(rs, bound, sample):
    """(xi^u xi^v) xi^w = xi^u (xi^v xi^w): sum_x c_uv^x c_xw^y equals
    sum_x c_vw^x c_ux^y at every y, for every triple of a whole group,
    seeded triples of A3, and the triples of affine A2 and of the
    hyperbolic rank-3 type with l(u) + l(v) + l(w) <= 6."""
    table = restriction_table(rs, bound)
    c = _all_constants(table)
    rng = table.range
    length = [w.length for w in rng]
    triples = [
        t for t in itertools.product(range(len(rng)), repeat=3)
        if rng.complete or sum(length[a] for a in t) <= bound
    ]
    if sample is not None:
        triples = random.Random(9908172).sample(triples, sample)
    nonzero = 0
    for u, v, w in triples:
        left = _triple_product(c[u, v], lambda x: c[x, w])
        right = _triple_product(c[v, w], lambda x: c[u, x])
        assert left == right, (rng.elements[u], rng.elements[v], rng.elements[w])
        nonzero += bool(left)
    assert nonzero


def test_engine_hashes_no_element_after_the_index(monkeypatch):
    """Once ``rng.index`` is built, the table, the recurrence's steps,
    every sweep row of the recurrence, the certificates and the records
    name elements by id only: none of them hashes a ``WeylElement``."""
    from eqschub import WeylElement, enumerate_upto

    rng = enumerate_upto(AFF_A2, 6)
    rng.index

    def refuse(self):
        raise AssertionError("a WeylElement was hashed")

    monkeypatch.setattr(WeylElement, "__hash__", refuse)
    table = restriction_table(AFF_A2, 6, rng=rng)
    swept = [a for a, w in enumerate(rng) if w.length <= 3]
    records = 0
    for u in swept:
        for s in column_constants(table, u, swept[u:]):
            record_text(s, positivity_certificate(s))
            records += 1
    assert records == len(swept) * (len(swept) + 1) // 2


# ---------------------------------------------------------------------------
# product identity


def test_verify_holds_for_a1_pair():
    s = element_from_word(A1, (1,))
    assert verify_product_identity(T_A1, structure_constants(T_A1, s, s))


def test_verify_detects_single_coefficient_perturbation():
    s = element_from_word(A1, (1,))
    table = structure_constants(T_A1, s, s)
    values = dict(table.values)
    k = T_A1.range.index[s]
    values[k] = values[k] + RootPolynomial.one(1)
    mutated = StructureTable(A1, "x", s, s, values, table.order)
    check = verify_product_identity(T_A1, mutated)
    assert not check
    assert check.failing is not None


def test_verify_refuses_a_range_too_short_for_the_pair():
    """A3 cut at length 2 holds neither s1 s2 s3 nor s3 s2 s1, nor any w of
    their product, so read there the identity would be 0 = 0 at every
    point, even for corrupted constants; it is refused instead."""
    u, v = element_from_word(A3, (1, 2, 3)), element_from_word(A3, (3, 2, 1))
    whole = restriction_table(A3, 6)
    s = structure_constants(whole, u, v)
    k = min(s.values)
    corrupt = StructureTable(A3, "x", u, v, {**s.values, k: s.values[k] + s.values[k]}, s.order)
    assert verify_product_identity(whole, s)
    assert not verify_product_identity(whole, corrupt)
    short = restriction_table(A3, 2)
    for constants in (s, corrupt):
        with pytest.raises(InsufficientBound, match="table bound 2 < length"):
            verify_product_identity(short, constants)


def test_verify_refuses_a_constant_beyond_the_range():
    """An id of the constants past the range is a row the table does not
    hold, not a zero restriction."""
    from eqschub import InternalInconsistency

    s1 = element_from_word(A2, (1,))
    s = structure_constants(T_A2, s1, s1)
    n = len(T_A2.range)
    extra = StructureTable(A2, "x", s1, s1, {**s.values, n: poly(2, {(1, 0): 1})}, s.order)
    with pytest.raises(InternalInconsistency, match=f"does not hold row {n} at"):
        verify_product_identity(T_A2, extra)


def test_verify_random_b2_pairs():
    rng = random.Random(3)
    els = list(T_B2.range)
    for _ in range(10):
        u = rng.choice(els)
        v = rng.choice(els)
        s = structure_constants(T_B2, u, v)
        assert verify_product_identity(T_B2, s)


# ---------------------------------------------------------------------------
# opposite basis


def test_a1_opposite_value():
    s = element_from_word(A1, (1,))
    y = opposite_constants(structure_constants(T_A1, s, s), longest_element(A1))
    assert y.basis == "y"
    assert y.values[T_A1.range.index[s]] == poly(1, {(1,): -1})
    assert T_A1.range.index[identity(A1)] not in y.values


def test_opposite_unit_row():
    e = identity(A2)
    w0 = longest_element(A2)
    for v in T_A2.range:
        y = opposite_constants(structure_constants(T_A2, e, v), w0)
        for k, w in enumerate(y.order):
            expected = RootPolynomial.one(2) if w == v else RootPolynomial.zero(2)
            assert y.values.get(k, RootPolynomial.zero(2)) == expected


def test_opposite_requires_finite_and_x_basis():
    from eqschub import NotFiniteType

    table = restriction_table(AFF, 2)
    s1 = element_from_word(AFF, (1,))
    s = structure_constants(table, s1, s1)
    with pytest.raises(NotFiniteType):
        opposite_constants(s, identity(AFF))
    x = structure_constants(T_A1, identity(A1), identity(A1))
    y = opposite_constants(x, longest_element(A1))
    with pytest.raises(ValueError):
        opposite_constants(y, longest_element(A1))


def _solve_on_transported_table(table, w0, u, v):
    """Independent route to the opposite constants.

    Transport every restriction value along the longest element, then run
    a self-contained triangular solve against the transported diagonal
    factors.  Mirrors the production solver's recurrence but divides by
    the transported inversion roots, so agreement with opposite_constants
    exercises both the substitution and the solver.
    """
    rank = table.range.rs.rank
    zero = RootPolynomial.zero(rank)
    stored = {
        b: {a: p.apply_linear(w0.matrix) for a, p in column.items()}
        for b, column in table.columns.items()
    }

    def sub(a, b):
        return stored[b].get(a, zero)

    rng = table.range
    total = u.length + v.length
    u, v = rng.index[u], rng.index[v]
    values = {}
    for w, element in enumerate(rng.elements):
        if element.length > total:
            break
        num = sub(u, w) * sub(v, w)
        for wp, a in values.items():
            num = num - a * sub(wp, w)
        if u in rng.leq[w] and v in rng.leq[w]:
            q = num
            for beta in inversion_coords(table.range.rs, element.word):
                q = q.exact_divide_linear(
                    RootPolynomial.from_linear(rank, beta).apply_linear(w0.matrix)
                )
            if not q.is_zero():
                values[w] = q
        else:
            assert num.is_zero()
    return values


def _degree_terms(p):
    """The (degree, coefficient) pairs of a polynomial's terms, which
    ``terms_sign_ok`` reads with ``_identity`` as its degree reader."""
    return [(sum(e), c) for e, c in p.sorted_terms()]


def _identity(d):
    return d


def test_sign_rule_reads_degrees_only_where_it_needs_them():
    """The x-basis rule calls no degree reader; the y-basis rule reads the
    degree of each monomial through it; another basis is a KeyError."""

    def unread(m):
        raise AssertionError(f"the x-basis rule read the degree of {m}")

    assert terms_sign_ok("x", [((1, 1), 2), ((2, 0), 0)], unread)
    assert not terms_sign_ok("x", [((1, 1), 2), ((2, 0), -1)], unread)
    assert terms_sign_ok("y", [((1, 1), 2), ((1, 0), -3)], sum)
    assert not terms_sign_ok("y", [((1, 1), -2)], sum)
    with pytest.raises(KeyError):
        terms_sign_ok("z", [], unread)


def test_a2_opposite_cross_check_full_sweep():
    """Every y-value obeys the sign dichotomy and matches an independent solve."""
    w0 = longest_element(A2)
    for u in T_A2.range:
        for v in T_A2.range:
            y = opposite_constants(structure_constants(T_A2, u, v), w0)
            independent = _solve_on_transported_table(T_A2, w0, u, v)
            assert y.values == independent
            for p in y.values.values():
                assert terms_sign_ok("y", _degree_terms(p), _identity)
                assert p.negate_variables().sign_pattern() in ("nonneg", "zero")


def test_a2_even_degree_opposite_value_is_positive_in_negated_roots():
    # Diagonal pair of a length-2 element: degree-2 value, positive plain
    # coefficients, nonnegative in the negated simple roots.
    s12 = element_from_word(A2, (1, 2))
    y = opposite_constants(structure_constants(T_A2, s12, s12), longest_element(A2))
    val = y.values[T_A2.range.index[s12]]
    assert val == poly(2, {(1, 1): 1, (0, 2): 1})
    assert val.sign_pattern() == "nonneg"
    assert terms_sign_ok("y", _degree_terms(val), _identity)


def test_opposite_verify_product_identity():
    w0 = longest_element(A2)
    s1 = element_from_word(A2, (1,))
    y = opposite_constants(structure_constants(T_A2, s1, s1), w0)
    assert verify_product_identity(T_A2, y)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_x_a1():
    s = element_from_word(A1, (1,))
    table = structure_constants(T_A1, s, s)
    cert = positivity_certificate(table)
    assert cert.verdict == "pass"
    by_word = {table.order[e.w].word: e.monomials for e in cert.entries}
    assert by_word[(1,)] == [((1,), 1)]


def test_certificate_y_a1():
    s = element_from_word(A1, (1,))
    y = opposite_constants(structure_constants(T_A1, s, s), longest_element(A1))
    cert = positivity_certificate(y)
    assert cert.verdict == "pass"
    by_word = {y.order[e.w].word: e.monomials for e in cert.entries}
    assert by_word[(1,)] == [((1,), -1)]


def test_certificate_zero_table_passes_vacuously():
    e = identity(A1)
    table = StructureTable(A1, "x", e, e, {}, (e,))
    assert positivity_certificate(table).verdict == "pass"


def test_certificate_detects_sign_violation():
    s = element_from_word(A1, (1,))
    k = T_A1.range.index[s]
    bad = StructureTable(A1, "x", s, s, {k: poly(1, {(1,): -2})}, T_A1.range.elements)
    cert = positivity_certificate(bad)
    assert cert.verdict == "fail"
    assert cert.failures == [k]


@pytest.mark.parametrize("basis", ["x", "y"])
def test_certificate_monomials_are_the_sorted_terms(basis):
    """A certificate entry keeps its value's packed terms in descending
    order, and reads its monomials off them: they are the value's
    ``sorted_terms()``, on every column of whole A3 in either basis."""
    table = restriction_table(A3, 6)
    w0 = longest_element(A3)
    entries = 0
    for v in range(len(table.range)):
        for s in column_constants(table, v, range(len(table.range))):
            if basis == "y":
                s = opposite_constants(s, w0)
            cert = positivity_certificate(s)
            assert [e.w for e in cert.entries] == list(s.values)
            for e in cert.entries:
                value = s.values[e.w]
                assert e.terms == sorted(value.terms.items(), reverse=True)
                assert e.monomials == value.sorted_terms()
                assert e.ok == terms_sign_ok(basis, _degree_terms(value), _identity)
                entries += 1
    assert entries


def test_records_of_systems_of_one_rank_read_no_stale_items():
    """A2, B2 and G2 have rank 2, and the ranges of B2 and G2 name other
    words at id 7.  The records and ``mult`` text lines of every pair of
    the three, in either basis, rendered in turn in one process so that
    each range keeps its zero items while the others are read, equal the
    oracles built from each table alone."""
    tables = [T_A2, T_B2, restriction_table(G2, 6)]
    assert tables[1].range.elements[7].word != tables[2].range.elements[7].word
    streams = [
        [(t, u, v) for u in t.range.elements for v in t.range.elements] for t in tables
    ]
    records = 0
    for step in itertools.zip_longest(*streams):
        for t, u, v in filter(None, step):
            x = structure_constants(t, u, v)
            for s in (x, opposite_constants(x, longest_element(t.range.rs))):
                cert = positivity_certificate(s)
                assert record_text(s, cert)[0] == json.dumps(record_dict(s, cert))
                zero = RootPolynomial.zero(2)
                assert text_lines(s) == [
                    f"w={w.word_text()}: {s.values.get(k, zero).to_text()}"
                    for k, w in enumerate(s.order)
                ]
                records += 1
    assert records == 2 * (6 * 6 + 8 * 8 + 12 * 12)


def test_certificate_json_shape():
    s = element_from_word(A1, (1,))
    table = structure_constants(T_A1, s, s)
    cert = positivity_certificate(table)
    data = json.loads(record_text(table, cert)[0])["certificate"]
    assert data == certificate_dict(table, cert)
    assert data["verdict"] == "pass"
    assert data["sign_rule"] == "nonneg"
    assert {"w": [1], "terms": [{"exp": [1], "coeff": "1"}], "verdict": "pass"} in data[
        "monomials"
    ]


# ---------------------------------------------------------------------------
# numeric evaluation


def test_evaluate_a1_at_one():
    s = element_from_word(A1, (1,))
    table = structure_constants(T_A1, s, s)
    values = dict(zip(table.order, billey_evaluate(table, (Fraction(1),))))
    assert values[s] == 1
    assert values[identity(A1)] == 0


def test_evaluate_unit_row():
    e = identity(A2)
    v = element_from_word(A2, (2, 1))
    table = structure_constants(T_A2, e, v)
    values = billey_evaluate(table, (Fraction(3, 2), Fraction(5)))
    assert len(values) == len(table.order)
    for w, x in zip(table.order, values):
        assert x == (1 if w == v else 0)


def test_evaluate_rejects_nonpositive_points():
    s = element_from_word(A1, (1,))
    table = structure_constants(T_A1, s, s)
    with pytest.raises(DomainViolation):
        billey_evaluate(table, (Fraction(0),))
    with pytest.raises(DomainViolation):
        billey_evaluate(table, (Fraction(-1, 2),))


def test_evaluate_nonnegative_on_positive_cone():
    rng = random.Random(5)
    for u in T_B2.range:
        for v in T_B2.range:
            table = structure_constants(T_B2, u, v)
            point = (
                Fraction(rng.randint(1, 12), rng.randint(1, 4)),
                Fraction(rng.randint(1, 12), rng.randint(1, 4)),
            )
            assert all(x >= 0 for x in billey_evaluate(table, point))


# ---------------------------------------------------------------------------
# serialization


def test_structure_table_json():
    s = element_from_word(A1, (1,))
    table = structure_constants(T_A1, s, s)
    data = json.loads(record_text(table, positivity_certificate(table))[0])
    assert data == record_dict(table)
    assert data["type"] == "A1"
    assert data["basis"] == "x"
    assert data["u"] == [1] and data["v"] == [1]
    assert data["values"] == [
        {"w": [], "poly": {"terms": []}},
        {"w": [1], "poly": {"terms": [{"exp": [1], "coeff": "1"}]}},
    ]
    assert data["certificate"]["verdict"] == "pass"


def _encoder_cases():
    s = element_from_word(A1, (1,))
    s1 = element_from_word(A2, (1,))
    s12 = element_from_word(A2, (1, 2))
    x = structure_constants(T_A2, s1, s12)
    last = max(x.values)
    n = len(T_A2.range)
    return {
        "failing": StructureTable(
            A1, "x", s, s, {T_A1.range.index[s]: poly(1, {(1,): -2})}, T_A1.range.elements
        ),
        "failing-on-range": StructureTable(
            A2, "x", s1, s12, {**x.values, last: -x.values[last]}, x.order, x.range
        ),
        "y-negative": opposite_constants(
            structure_constants(T_A2, s12, s1), longest_element(A2)
        ),
        "all-zero": StructureTable(A2, "x", s1, s12, {}, T_A2.range.elements),
        # The ids of the range's elements, reversed: an order of the same
        # system and length that is no prefix of any range.
        "not-a-prefix": StructureTable(
            A2, "x", s1, s12, {n - 1 - k: x.values[k] for k in sorted(x.values, reverse=True)},
            T_A2.range.elements[::-1],
        ),
    }


@pytest.mark.parametrize(
    "case", ["failing", "failing-on-range", "y-negative", "all-zero", "not-a-prefix"]
)
def test_record_text_is_json_dumps_of_the_record_dict(case):
    """Both lines of ``record_text`` are, byte for byte, ``json.dumps`` of
    the record's dict form, with "u" and "v" swapped in the second.  The
    range's zero items are filled first by a record of another pair, and
    a table whose order is no prefix of a range reads none of them."""
    table = _encoder_cases()[case]
    cert = positivity_certificate(table)
    coeffs = [c for p in table.values.values() for c in p.terms.values()]
    if case.startswith("failing"):
        assert cert.verdict == "fail"
        assert (table.range is T_A2.range) == (case == "failing-on-range")
    elif case == "y-negative":
        assert min(coeffs) < 0 and table.u != table.v
    elif case == "all-zero":
        assert not coeffs and len(table.order) == len(T_A2.range)
    else:
        assert table.range is None and table.order[0] == T_A2.range.elements[-1]
        assert coeffs and len(table.order) == len(T_A2.range)
    e = identity(A2)
    filler = structure_constants(T_A2, e, e)
    record_text(filler, positivity_certificate(filler))
    assert T_A2.range.memo("zero items")
    line, swapped = record_text(table, cert)
    data = record_dict(table, cert)
    assert line == json.dumps(data)
    assert swapped == json.dumps(dict(data, u=data["v"], v=data["u"]))
