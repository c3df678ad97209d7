"""Fixed-point restriction values: the table, single columns and the
subword-formula oracle."""

import pickle
import re
from bisect import bisect_right

import pytest

from eqschub import (
    CartanMatrix,
    InsufficientBound,
    InternalInconsistency,
    RankMismatch,
    RootPolynomial,
    build_root_system,
    builtin_root_system,
    element_from_word,
    enumerate_upto,
    identity,
    longest_element,
    restriction_column,
    restriction_table,
)

from eqschub.localize import RestrictionTable, _verify_table
from eqschub.rootsys import GENERAL

from conftest import (
    affine_a_cartan,
    all_reduced_words,
    billey_restrict,
    held_rows,
    inversion_product,
    mat_vec,
)

A1 = builtin_root_system("A1")
A2 = builtin_root_system("A2")
A3 = builtin_root_system("A3")
B2 = builtin_root_system("B2")
G2 = builtin_root_system("G2")
AFF = builtin_root_system("AffineA1")
AFF_A2 = build_root_system(CartanMatrix(affine_a_cartan(2)), GENERAL)
HYP3 = build_root_system(CartanMatrix(((2, -2, 0), (-2, 2, -1), (0, -1, 2))), GENERAL)

SYSTEMS = [(A2, 5), (B2, 5), (G2, 5), (AFF, 5)]


def ideal_rows(rng, v):
    """The ids of the Bruhat lower ideal of the id v, with e and the s_i."""
    return rng.leq[v] | {a for a, w in enumerate(rng) if w.length <= 1}


def writable(table):
    """A copy of ``table`` whose columns are dicts of its own, for the tests
    that corrupt an entry: a built table's columns are read-only views of
    its range's store."""
    columns = {v: dict(column) for v, column in table.columns.items()}
    return RestrictionTable(table.range, columns, table.rows_at)


def upper_points(rng, x, top):
    """The ids of the w >= the id x with l(w) <= top."""
    return {w for w, e in enumerate(rng) if e.length <= top and x in rng.leq[w]}


def word_steps(rng):
    """The canonical parent v s_i of each id v but e, with i the last letter
    of v's word, and the id of w s_i < w for each id w and letter i, read
    off the elements' matrices."""
    rs = rng.elements[0].rs
    parent = {v: rng.index[element_from_word(rs, e.word[:-1])] for v, e in enumerate(rng) if v}
    down = {
        (w, i): rng.index[x] for w, e in enumerate(rng) for i in range(1, rs.rank + 1)
        if (x := element_from_word(rs, e.word + (i,))).length < e.length
    }
    return parent, down


def wanted_rows(rng, rows, points, steps):
    """The rows a table over ``rows`` at ``points`` holds at each point, by
    its rules iterated to a fixed point over ``steps = word_steps(rng)``:
    ``rows`` at each of ``points``, ``rows`` and w itself at each w of
    their Bruhat lower ideal, and at the canonical parent v s_i of a point
    v, the rows of v with each w s_i < w of them."""
    parent, down = steps
    ideal = set().union(*(rng.leq[w] for w in rows))
    want = {p: set(rows) for p in points | ideal}
    for w in ideal:
        want[w].add(w)
    changed = True
    while changed:
        changed = False
        for v in list(want):
            if not v:
                continue
            i = rng.elements[v].word[-1]
            step = want[v] | {down[w, i] for w in want[v] if (w, i) in down}
            if not step <= want.setdefault(parent[v], set()):
                want[parent[v]] |= step
                changed = True
    return want


def word_prefixes(rng, ids):
    """The ids of every prefix of the canonical words of ``ids``."""
    rs = rng.elements[0].rs
    return {
        rng.index[element_from_word(rs, rng.elements[w].word[:j])]
        for w in ids for j in range(rng.elements[w].length + 1)
    }


# ---------------------------------------------------------------------------
# single restrictions


def test_a1_diagonal_is_the_root():
    s = element_from_word(A1, (1,))
    assert billey_restrict(A1, s, s) == RootPolynomial.variable(1, 1)


def test_a2_off_diagonal_example():
    s1 = element_from_word(A2, (1,))
    v = element_from_word(A2, (1, 2))
    assert billey_restrict(A2, s1, v) == RootPolynomial.variable(2, 1)


def test_vanishes_when_not_below():
    w = element_from_word(A2, (1, 2))
    v = element_from_word(A2, (1,))
    assert billey_restrict(A2, w, v).is_zero()


def test_identity_restricts_to_one_everywhere():
    for v in enumerate_upto(A2, 3):
        assert billey_restrict(A2, identity(A2), v) == RootPolynomial.one(2)


def test_explicit_word_override_must_be_reduced():
    v = element_from_word(A2, (1, 2))
    s1 = element_from_word(A2, (1,))
    with pytest.raises(ValueError):
        billey_restrict(A2, s1, v, reduced_word=(2, 1))
    with pytest.raises(ValueError):
        billey_restrict(A2, s1, v, reduced_word=(1, 2, 2, 2))


# ---------------------------------------------------------------------------
# tables


def test_a1_table_entries():
    table = restriction_table(A1, 1)
    e = element_from_word(A1, ())
    s = element_from_word(A1, (1,))
    one = RootPolynomial.one(1)
    assert table.columns == {0: {0: one}, 1: {0: one, 1: RootPolynomial.variable(1, 1)}}
    assert table.value(e, e) == RootPolynomial.one(1)
    assert table.value(e, s) == RootPolynomial.one(1)
    assert table.value(s, e).is_zero()
    assert table.value(s, s) == RootPolynomial.variable(1, 1)


def test_g2_full_diagonal_is_product_of_all_positive_roots():
    table = restriction_table(G2, 6)
    w0 = longest_element(G2)
    expected = RootPolynomial.one(2)
    for root in G2.positive_roots:
        expected = expected * RootPolynomial.from_linear(2, root)
    w0 = table.range.index[w0]
    assert table.columns[w0][w0] == expected


def test_batched_table_matches_single_restrictions():
    for rs, k in [(A2, 3), (B2, 3), (AFF, 4), (A3, 6), (AFF_A2, 5)]:
        table = restriction_table(rs, k)
        zero = RootPolynomial.zero(rs.rank)
        for v in table.range:
            column = restriction_column(v)
            for w in table.range:
                oracle = billey_restrict(rs, w, v)
                assert table.value(w, v) == oracle
                assert column.get(w.matrix, zero) == oracle


@pytest.mark.parametrize(
    "rs,k",
    [(A3, 6), (B2, 4), (G2, 6), (AFF, 10), (AFF_A2, 6)],
    ids=["A3", "B2", "G2", "AffineA1", "AffineA2"],
)
def test_column_equals_every_table_column(rs, k):
    table = restriction_table(rs, k)
    els = table.range.elements
    for v, element in enumerate(els):
        expected = {els[w].matrix: poly for w, poly in table.columns[v].items()}
        assert restriction_column(element) == expected


def _table_holding(rs, k, w, v, ideal):
    """A writable copy of the whole table, or of one over the lower ideal
    of the longer of the words w and v, which holds the rows of both."""
    if not ideal:
        return writable(restriction_table(rs, k))
    rng = enumerate_upto(rs, k)
    longer = rng.index[element_from_word(rs, max(w, v, key=len))]
    table = restriction_table(rs, k, rng=rng, rows=ideal_rows(rng, longer))
    assert held_rows(table) != frozenset(range(len(rng)))
    return writable(table)


@pytest.mark.parametrize(
    "rs,k,w,v,ideal",
    [(A2, 3, (1,), (1, 2), False), (A2, 3, (1,), (1, 2), True),
     (AFF_A2, 4, (2,), (3, 1, 2), False), (AFF_A2, 4, (2,), (3, 1, 2), True)],
    ids=["A2", "A2-ideal", "AffineA2", "AffineA2-ideal"],
)
def test_verify_table_rejects_zero_inside_bruhat_interval(rs, k, w, v, ideal):
    table = _table_holding(rs, k, w, v, ideal)
    w, v = (table.range.index[element_from_word(rs, x)] for x in (w, v))
    assert w in table.range.leq[v] and not table.columns[v][w].is_zero()
    del table.columns[v][w]
    with pytest.raises(InternalInconsistency, match="zero but w <= v"):
        _verify_table(table)


@pytest.mark.parametrize(
    "rs,k,w,v,ideal",
    [(A2, 3, (1,), (1, 2), False), (A2, 3, (1,), (1, 2), True),
     (AFF_A2, 4, (2,), (3, 1, 2), False), (AFF_A2, 4, (2,), (3, 1, 2), True)],
    ids=["A2", "A2-ideal", "AffineA2", "AffineA2-ideal"],
)
def test_verify_table_rejects_stored_zero_inside_bruhat_interval(rs, k, w, v, ideal):
    table = _table_holding(rs, k, w, v, ideal)
    w, v = (table.range.index[element_from_word(rs, x)] for x in (w, v))
    assert w in table.range.leq[v]
    table.columns[v][w] = RootPolynomial.zero(rs.rank)
    with pytest.raises(InternalInconsistency, match="zero but w <= v"):
        _verify_table(table)


@pytest.mark.parametrize(
    "rs,k,w,v,ideal",
    [(A2, 3, (1, 2), (1,), False), (A2, 3, (1, 2), (1,), True),
     (AFF_A2, 4, (3, 1, 2), (2,), False), (AFF_A2, 4, (3, 1, 2), (2,), True)],
    ids=["A2", "A2-ideal", "AffineA2", "AffineA2-ideal"],
)
def test_verify_table_rejects_entry_outside_bruhat_interval(rs, k, w, v, ideal):
    table = _table_holding(rs, k, w, v, ideal)
    element = element_from_word(rs, w)
    w, v = (table.range.index[element_from_word(rs, x)] for x in (w, v))
    assert w not in table.range.leq[v]
    table.columns[v][w] = billey_restrict(rs, element, element)
    with pytest.raises(InternalInconsistency, match="nonzero but w !<= v"):
        _verify_table(table)
    table.columns[v][w] = RootPolynomial.zero(rs.rank)
    with pytest.raises(InternalInconsistency, match="stored as zero"):
        _verify_table(table)


@pytest.mark.parametrize(
    "rs,k",
    [(A3, 6), (B2, 4), (G2, 6), (AFF_A2, 6)],
    ids=["A3", "B2", "G2", "AffineA2"],
)
def test_ideal_table_is_the_whole_table_on_its_rows(rs, k):
    """Built over the lower ideal of any v, with e and the s_i, the table
    holds exactly the whole table's entries on those rows: built over a
    fresh range, whose store holds nothing, and over one range that keeps
    the entries of the tables before it."""
    whole = restriction_table(rs, k)
    rng = whole.range
    shared = enumerate_upto(rs, k)
    for v in range(len(rng)):
        rows = ideal_rows(rng, v)
        for over in (enumerate_upto(rs, k), shared):
            table = restriction_table(rs, k, rng=over, rows=rows)
            assert table.range is not rng
            assert held_rows(table) == rows
            assert table.columns == {
                v: {w: p for w, p in column.items() if w in rows}
                for v, column in whole.columns.items()
            }


@pytest.mark.parametrize(
    "rs,k",
    [(A3, 6), (B2, 4), (G2, 6), (AFF_A2, 6), (HYP3, 6)],
    ids=["A3", "B2", "G2", "AffineA2", "Hyperbolic3"],
)
def test_range_xi_is_the_simple_reflection_rows(rs, k):
    """The range's xi^{s_i}, summed from the inversion roots along canonical
    words, is the whole table's row of s_i at every point."""
    table = restriction_table(rs, k)
    rng = table.range
    simple = [rng.index[element_from_word(rs, (i,))] for i in range(1, rs.rank + 1)]
    zero = RootPolynomial.zero(rs.rank)
    assert len(rng.xi) == len(rng)
    for v, column in table.columns.items():
        assert tuple(RootPolynomial.from_linear(rs.rank, c) for c in rng.xi[v]) == tuple(
            column.get(s, zero) for s in simple
        ), rng.elements[v]


def test_table_closes_unclosed_rows_and_refuses_rows_outside_the_range():
    """Rows not closed under going down are the rows wanted: the table
    closes them and holds the whole table's entries wherever it holds a
    row.  An id outside the range, or no row at all, is refused."""
    whole = restriction_table(A2, 3)
    rng = whole.range
    s1s2 = rng.index[element_from_word(A2, (1, 2))]
    for rows in ({s1s2}, {0, s1s2}):
        table = restriction_table(A2, 3, rng=enumerate_upto(A2, 3), rows=rows)
        assert held_rows(table) == rng.leq[s1s2]
        assert table.rows_at == wanted_rows(rng, rows, set(range(len(rng))), word_steps(rng))
        for v, column in table.columns.items():
            assert column == {w: p for w, p in whole.columns[v].items() if w in table.rows_at[v]}
    for rows in ({0, len(rng)}, set()):
        with pytest.raises(ValueError, match="ids of the range"):
            restriction_table(A2, 3, rng=rng, rows=rows)


def test_whole_table_holds_one_set_of_rows_at_every_point():
    """The whole table, built without rows or given every id as its rows
    at every point, maps each point to one shared set of every id."""
    from eqschub.structconst import recurrence_table

    whole = restriction_table(A3, 6)
    rng = whole.range
    every = frozenset(range(len(rng)))
    for table in (whole, recurrence_table(rng, every, every, 6)):
        assert table.rows_at == dict.fromkeys(range(len(rng)), every)
        assert len({id(here) for here in table.rows_at.values()}) == 1
        assert table.columns == whole.columns


def test_verify_table_rejects_entry_outside_the_rows():
    whole = restriction_table(A2, 3)
    rng = whole.range
    s1 = rng.index[element_from_word(A2, (1,))]
    s2s1 = rng.index[element_from_word(A2, (2, 1))]
    w0 = len(rng) - 1
    table = writable(restriction_table(A2, 3, rng=rng, rows=ideal_rows(rng, s1)))
    assert not table.holds(s2s1)
    table.columns[w0][s2s1] = whole.columns[w0][s2s1]
    with pytest.raises(InternalInconsistency, match="stored outside the rows"):
        _verify_table(table)


def test_value_raises_on_a_row_the_table_does_not_hold():
    """Outside its rows an ideal table raises, where a whole one reads zero."""
    rng = enumerate_upto(A2, 3)
    s1, s2, s1s2, w0 = (element_from_word(A2, x) for x in ((1,), (2,), (1, 2), (1, 2, 1)))
    table = restriction_table(A2, 3, rng=rng, rows=ideal_rows(rng, rng.index[s1]))
    assert table.value(s2, w0) == restriction_table(A2, 3).value(s2, w0)
    assert table.value(s1, s2).is_zero()
    for w in (s1s2, w0):
        with pytest.raises(InternalInconsistency, match="does not hold"):
            table.value(w, w0)
    assert restriction_table(A2, 3).value(s1s2, s1).is_zero()


def test_value_raises_on_a_row_held_at_another_point_only():
    """A table over one row holds, at a point, only the rows the steps above
    it read; a row it holds elsewhere is not read as zero at that point."""
    whole = restriction_table(A3, 6)
    rng = whole.range
    els = rng.elements
    short, long = (rng.index[element_from_word(A3, x)] for x in ((2, 1), (1, 3)))
    table = restriction_table(A3, 6, rng=enumerate_upto(A3, 6), rows={short},
                              points=upper_points(rng, long, 4))
    pairs = [(w, v) for v in table.rows_at for w in held_rows(table) if not table.holds(w, v)]
    assert any(w in rng.leq[v] for w, v in pairs)
    for w, v in pairs:
        assert table.holds(w) and table.holds_point(v)
        message = re.escape(f"does not hold the row of {els[w]} at {els[v]}")
        with pytest.raises(InternalInconsistency, match=message):
            table.value(els[w], els[v])
    for v in table.rows_at:
        for w in table.rows_at[v]:
            assert table.value(els[w], els[v]) == whole.columns[v].get(w, RootPolynomial.zero(3))


@pytest.mark.parametrize(
    "rs,k",
    [(A3, 6), (B2, 4), (G2, 6), (AFF_A2, 6), (AFF, 10)],
    ids=["A3", "B2", "G2", "AffineA2", "AffineA1"],
)
def test_point_table_is_the_whole_table_at_its_points(rs, k):
    """Given rows at points, the table holds the points with the points
    their canonical words step from and the rows' own points, and there
    it holds exactly the whole table's entries.  Each table is built over a
    fresh range, whose store holds nothing, so its every entry comes from
    the step that keeps only the rows held."""
    whole = restriction_table(rs, k)
    rng = whole.range
    steps = word_steps(rng)
    for x in range(len(rng)):
        # Every other x cut just above itself, the rest at the bound.
        points = upper_points(rng, x, rng.elements[x].length + 1 if x % 2 else k)
        y = min(x, len(rng) - 1 - x)
        rows = ideal_rows(rng, y)
        table = restriction_table(rs, k, rng=enumerate_upto(rs, k), rows=rows, points=points)
        assert table.rows_at.keys() == word_prefixes(rng, points | rows)
        assert table.columns == {
            v: {w: p for w, p in column.items() if w in rows}
            for v, column in whole.columns.items() if v in table.rows_at
        }
        assert table.rows_at == dict.fromkeys(table.rows_at, rows)
        # A single row, closed by the table: at each given point it holds
        # the rows the steps above that point read.
        table = restriction_table(rs, k, rng=enumerate_upto(rs, k), rows={y}, points=points)
        want = wanted_rows(rng, {y}, points, steps)
        assert held_rows(table) == rng.leq[y]
        assert table.rows_at.keys() == word_prefixes(rng, points | rng.leq[y])
        assert table.rows_at == want
        for p in points:
            assert table.columns[p].keys() == want[p] & rng.leq[p], (x, p)
        for v, column in table.columns.items():
            assert column == {w: whole.columns[v][w] for w in column}, (x, v)


def test_point_table_refuses_points_outside_the_range():
    rng = enumerate_upto(A2, 3)
    for points in ({len(rng)}, {0, -1}):
        with pytest.raises(ValueError, match="ids of the range"):
            restriction_table(A2, 3, rng=rng, points=points)


def test_point_table_refuses_points_without_rows():
    """A table holds every row at every point or the given rows at the
    given points: points alone, even every point, are refused."""
    rng = enumerate_upto(A2, 3)
    for points in ({0, 1}, set(range(len(rng)))):
        with pytest.raises(ValueError, match="with rows"):
            restriction_table(A2, 3, rng=rng, points=points)


def test_table_refuses_a_range_of_another_root_system():
    """A range of another Cartan matrix or kind would label its values with
    the wrong system."""
    for rng in (enumerate_upto(B2, 4), enumerate_upto(build_root_system(A2.cartan, GENERAL), 2)):
        with pytest.raises(ValueError, match="another root system"):
            restriction_table(A2, 2, rng=rng)


def test_table_refuses_a_range_of_another_bound():
    """A table uses the range it is given as it is, so a range whose bound
    is not k is refused, whether longer or shorter, whole group or not;
    a range of bound k gives the table of a fresh range."""
    for rs, k, bound in ((B2, 2, 4), (B2, 6, 4), (AFF, 3, 4), (AFF, 5, 4)):
        with pytest.raises(ValueError, match=f"bound {bound}, not {k}"):
            restriction_table(rs, k, rng=enumerate_upto(rs, bound))
    rng = enumerate_upto(B2, 2)
    table = restriction_table(B2, 2, rng=rng)
    fresh = restriction_table(B2, 2)
    assert table.range is rng and table.range.elements == fresh.range.elements
    assert table.columns == fresh.columns


def _point_table():
    """A writable copy of the A3 table over the lower ideal of s2 s1, with e
    and the s_i, at the points above s1 s3 up to length 4, which ``mult``
    reads for that pair.  Returns it with the whole table."""
    whole = restriction_table(A3, 6)
    rng = whole.range
    short, long = (rng.index[element_from_word(A3, x)] for x in ((2, 1), (1, 3)))
    table = restriction_table(A3, 6, rng=rng, rows=ideal_rows(rng, short),
                              points=upper_points(rng, long, 4))
    assert len(table.rows_at) < len(rng)
    return writable(table), whole


@pytest.mark.parametrize(
    "invariant",
    ["support", "stored-zero", "outside-interval", "homogeneity", "diagonal", "sign"],
)
def test_verify_point_table_rejects_a_corrupted_held_entry(invariant):
    table, _ = _point_table()
    rng = table.range
    columns = table.columns
    held = [(w, v) for v, column in columns.items() for w in column if 0 < w < v]
    w, v = max(held, key=lambda key: (rng.elements[key[0]].length, key))
    poly = columns[v][w]
    # A held row off the interval of a held point.
    rows = held_rows(table)
    off = max(b for b in columns if not rows <= rng.leq[b])
    x = max(rows - rng.leq[off])
    if invariant == "support":
        del columns[v][w]
        message = "zero but w <= v"
    elif invariant == "stored-zero":
        columns[off][x] = RootPolynomial.zero(3)
        message = "stored as zero"
    elif invariant == "outside-interval":
        columns[off][x] = columns[x][x]
        message = "nonzero but w !<= v"
    elif invariant == "homogeneity":
        columns[v][w] = poly * RootPolynomial.variable(3, 1)
        message = "not homogeneous"
    elif invariant == "diagonal":
        columns[w][w] = columns[w][w] + columns[w][w]
        message = "differs from its inversion product"
    else:
        columns[v][w] = -poly
        message = "negative coefficients"
    with pytest.raises(InternalInconsistency, match=message):
        _verify_table(table)


def test_verify_table_rejects_entry_outside_the_points():
    table, whole = _point_table()
    v = next(v for v in whole.columns if not table.holds_point(v))
    w = next(w for w in whole.columns[v] if table.holds(w))
    table.columns[v] = {w: whole.columns[v][w]}
    with pytest.raises(InternalInconsistency, match="stored outside the points"):
        _verify_table(table)


@pytest.mark.parametrize(
    "rs,k",
    [(A3, 6), (G2, 6), (AFF_A2, 6)],
    ids=["A3", "G2", "AffineA2"],
)
def test_range_inversion_product_is_the_inversion_coords_product(rs, k):
    """The diagonal the check compares against, kept on the range and
    served to a reader of any smaller bound, is the product of the
    inversion roots."""
    rng = enumerate_upto(rs, k)
    shorter = [rng.inversion_product(w) for w in range(bisect_right(rng.lengths, k - 2))]
    for w, x in enumerate(rng):
        assert rng.inversion_product(w) == inversion_product(x)
        if w < len(shorter):
            assert shorter[w] is rng.inversion_product(w)


def test_verify_rejects_a_corrupted_diagonal_with_the_products_kept():
    """A second table over the same range finds the inversion products
    already kept there and still refuses a doubled diagonal."""
    table, whole = _point_table()
    rng = table.range
    assert whole.range is rng and len(rng.memo("inversion products")) == len(rng)
    w = max(held_rows(table))
    table.columns[w][w] = table.columns[w][w] + table.columns[w][w]
    with pytest.raises(InternalInconsistency, match="differs from its inversion product"):
        _verify_table(table)


def test_a_corrupted_step_leaves_the_store_without_its_entries(monkeypatch):
    """A range keeps each restriction entry a table computes once the
    table's check has passed it.  With the step at w0 of A3 corrupted (one
    new entry there negated), a table needing rows w0 lacks raises, and the
    range keeps nothing that table computed: the point w0 keeps the rows
    an earlier table left there, and nothing else.  So a second build with
    the step still corrupted raises again, and once the step is mended the
    table equals one over a fresh range."""
    import eqschub.localize as localize

    rng = enumerate_upto(A3, 6)
    w0 = len(rng) - 1
    short, long = (rng.index[element_from_word(A3, x)] for x in ((2, 1), (1, 3)))
    restriction_table(A3, 6, rng=rng, rows={short}, points=upper_points(rng, long, 6))
    store = rng.memo("restrictions")
    before = dict(store)
    assert w0 in before
    step = localize._next_column

    def corrupted(column, i, beta, ascend, keep=None):
        out = step(column, i, beta, ascend, keep)
        if beta is rng.last_root[w0]:
            w = max(out)
            out[w] = -out[w]
        return out

    monkeypatch.setattr(localize, "_next_column", corrupted)
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="negative coefficients"):
            restriction_table(A3, 6, rng=rng)
        assert store == before and all(store[v] is before[v] for v in store)
    monkeypatch.undo()
    assert restriction_table(A3, 6, rng=rng).columns == restriction_table(A3, 6).columns


def test_a_write_into_a_column_is_refused():
    """A table's columns are read-only views of its range's store, which
    every later table over the range reads: a column the table shares with
    the store and one it filtered to its rows both refuse a write, and a
    later table reads the values the check passed."""
    rng = enumerate_upto(A3, 6)
    w0 = len(rng) - 1
    whole = restriction_table(A3, 6, rng=rng)
    part = restriction_table(A3, 6, rng=rng, rows=ideal_rows(rng, 1))
    assert dict(part.columns[w0]) != dict(whole.columns[w0])
    for column in (whole.columns[w0], part.columns[w0]):
        with pytest.raises(TypeError):
            column[1] = RootPolynomial.zero(3)
        with pytest.raises(TypeError):
            del column[1]
        with pytest.raises(AttributeError):
            column.clear()
    assert restriction_table(A3, 6, rng=rng).columns == restriction_table(A3, 6).columns
    # A pickled table, as a spawned sweep worker gets it, reads the same
    # values through read-only columns of its own.
    copy = pickle.loads(pickle.dumps(part))
    assert copy.columns == part.columns and copy.rows_at == part.rows_at
    with pytest.raises(TypeError):
        copy.columns[w0][1] = RootPolynomial.zero(3)


def test_stored_values_share_their_packed_monomials():
    """The range keeps each packed monomial of its stored values once: the
    values of the whole A3 table hold many more terms than distinct
    monomials, and every term's key is the one int kept for it."""
    rng = enumerate_upto(A3, 6)
    table = restriction_table(A3, 6, rng=rng)
    keys = [e for column in table.columns.values() for p in column.values() for e in p.terms]
    assert len(keys) > 2 * len(set(keys))
    assert len({id(e) for e in keys}) == len(set(keys))
    assert table.columns == restriction_table(A3, 6).columns


@pytest.mark.parametrize(
    "corrupt,message",
    [(lambda p: -p, "negative coefficients"),
     (lambda p: p * RootPolynomial.variable(3, 1), "not homogeneous")],
    ids=["negated", "times-a1"],
)
def test_verify_checks_a_replaced_copy_of_a_shared_polynomial(corrupt, message):
    """A column copies its parent's entries by reference, so the check
    looks at each (row, polynomial object) once; an entry replaced by a
    new object at one (w, v), the other copies left intact, is still
    checked and refused."""
    table, _ = _point_table()
    first: dict = {}
    copies = []
    for v, column in table.columns.items():
        for w, poly in column.items():
            if first.setdefault((w, id(poly)), v) != v:
                copies.append((w, v))
    assert copies
    w, v = copies[-1]
    table.columns[v][w] = corrupt(table.columns[v][w])
    with pytest.raises(InternalInconsistency, match=message):
        _verify_table(table)


def test_step_refuses_a_degree_at_the_packed_limit(monkeypatch):
    """The step adds each product in with ``RootPolynomial.add_product``,
    which refuses a degree at the packed limit as ``__mul__`` does; with
    the limit lowered to 3, that is an entry of an element of length 3 on
    A2, in a column and in a table."""
    import eqschub.rootsys as rootsys

    whole = restriction_table(A2, 3)
    top = len(whole.range) - 1
    monkeypatch.setattr(rootsys, "DEGREE_LIMIT", 3)
    with pytest.raises(ValueError, match="product degree is not below 3"):
        restriction_column(element_from_word(A2, (1, 2, 1)))
    with pytest.raises(ValueError, match="product degree is not below 3"):
        restriction_table(A2, 3)
    v = element_from_word(A2, (1, 2))
    assert restriction_column(v) == {
        whole.range.elements[w].matrix: poly
        for w, poly in whole.columns[whole.range.index[v]].items()
    }
    # Rows of length 1 or less hold entries of degree 1 or less at every point.
    table = restriction_table(A2, 3, rng=whole.range, rows={0, 1, 2})
    assert table.columns[top] == {w: whole.columns[top][w] for w in (0, 1, 2)}


def test_value_beyond_a_truncated_range_raises():
    """xi^e is 1 at every fixed point, but a table cut at length 2 holds no
    value at a point of length 5: reading one is InsufficientBound, not 0.
    So is reading a row of length 5, and the whole table holds no id past
    its range, nor None, as a row or a point."""
    e, s1s2s1s2s1 = identity(AFF), element_from_word(AFF, (1, 2, 1, 2, 1))
    assert restriction_table(AFF, 5).value(e, s1s2s1s2s1) == RootPolynomial.one(2)
    table = restriction_table(AFF, 2)
    beyond = re.escape(f"{s1s2s1s2s1} lies beyond the range")
    for w, v in ((e, s1s2s1s2s1), (s1s2s1s2s1, e)):
        with pytest.raises(InsufficientBound, match=beyond):
            table.value(w, v)
    n = len(table.range)
    assert not table.holds(None) and not table.holds(n) and not table.holds_point(n)


def test_value_refuses_an_element_of_another_system():
    """An element of another root system, or of A2's matrix built as
    "general", is a RankMismatch, as in ``structure_constants``: not a zero
    and not a point beyond the range."""
    table = restriction_table(A2, 3)
    s1 = element_from_word(A2, (1,))
    b2 = element_from_word(B2, (1,))
    general = element_from_word(build_root_system(A2.cartan, GENERAL), (1,))
    for w, v in ((b2, s1), (s1, b2), (general, s1), (s1, general)):
        with pytest.raises(RankMismatch):
            table.value(w, v)


def test_value_off_the_points_raises():
    """A point the table leaves out is not read as zero."""
    table, whole = _point_table()
    e = identity(A3)
    for b, v in enumerate(table.range):
        if table.holds_point(b):
            assert table.value(e, v) == whole.value(e, v)
        else:
            with pytest.raises(InternalInconsistency, match="does not hold the point"):
                table.value(e, v)


@pytest.mark.parametrize("rs,k", SYSTEMS)
def test_support_homogeneity_diagonal_nonneg(rs, k):
    table = restriction_table(rs, k)
    rng = table.range
    for a, w in enumerate(rng):
        for b, v in enumerate(rng):
            poly = table.value(w, v)
            if a not in rng.leq[b]:
                assert poly.is_zero()
            assert poly.is_homogeneous_of(w.length)
            assert poly.sign_pattern() in ("nonneg", "zero")
    for w in rng:
        assert table.value(w, w) == inversion_product(w)


@pytest.mark.parametrize("rs,k", SYSTEMS)
def test_reduced_word_independence(rs, k):
    rng = enumerate_upto(rs, k)
    for v in rng:
        words = all_reduced_words(v)
        for w in rng:
            baseline = billey_restrict(rs, w, v)
            for word in words:
                assert billey_restrict(rs, w, v, reduced_word=word) == baseline


@pytest.mark.parametrize("rs", [A2, B2, G2])
def test_degree_one_closed_form(rs):
    """Restriction of a simple reflection is omega_i minus its image."""
    k = len(rs.positive_roots)
    rng = enumerate_upto(rs, k)
    from eqschub import simple_reflection

    for i in range(1, rs.rank + 1):
        si = simple_reflection(rs, i)
        omega = rs.fundamental_weights[i - 1]
        for v in rng:
            expected = [a - b for a, b in zip(omega, mat_vec(v.matrix, omega))]
            assert all(c.denominator == 1 for c in expected)
            assert billey_restrict(rs, si, v) == RootPolynomial.from_linear(rs.rank, expected)


@pytest.mark.parametrize("rs,k", SYSTEMS)
def test_triangular_with_nonzero_diagonal(rs, k):
    table = restriction_table(rs, k)
    for a, w in enumerate(table.range):
        assert not table.value(w, w).is_zero()
        for b, v in enumerate(table.range):
            if a in table.range.leq[b]:
                assert not table.value(w, v).is_zero()
