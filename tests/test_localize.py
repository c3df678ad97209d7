"""Fixed-point restriction values: the table, single columns and the
subword-formula oracle."""

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
    inversions,
    longest_element,
    restriction_column,
    restriction_table,
)

from eqschub.localize import _verify_table
from eqschub.rootsys import GENERAL

from conftest import affine_a_cartan, all_reduced_words, billey_restrict

A1 = builtin_root_system("A1")
A2 = builtin_root_system("A2")
A3 = builtin_root_system("A3")
B2 = builtin_root_system("B2")
G2 = builtin_root_system("G2")
AFF = builtin_root_system("AffineA1")
AFF_A2 = build_root_system(CartanMatrix(affine_a_cartan(2)), GENERAL)

SYSTEMS = [(A2, 5), (B2, 5), (G2, 5), (AFF, 5)]


def ideal_rows(rng, v):
    """The ids of the Bruhat lower ideal of the id v, with e and the s_i."""
    return rng.leq[v] | {a for a, w in enumerate(rng) if w.length <= 1}


def upper_points(rng, x, top):
    """The ids of the w >= the id x with l(w) <= top."""
    return {w for w, e in enumerate(rng) if e.length <= top and x in rng.leq[w]}


def word_prefixes(rng, ids):
    """The ids of every prefix of the canonical words of ``ids``."""
    rs = rng.elements[0].rs
    return {
        rng.index[element_from_word(rs, rng.elements[w].word[:j])]
        for w in ids for j in range(rng.elements[w].length + 1)
    }


def inversion_product(w):
    out = RootPolynomial.one(w.rs.rank)
    for beta in inversions(w):
        out = out * beta.to_polynomial()
    return out


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
        expected = expected * root.to_polynomial()
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
    """The whole table, or one over the lower ideal of the longer of the
    words w and v, which holds the rows of both."""
    if not ideal:
        return restriction_table(rs, k)
    rng = enumerate_upto(rs, k)
    longer = rng.index[element_from_word(rs, max(w, v, key=len))]
    table = restriction_table(rs, k, rng=rng, rows=ideal_rows(rng, longer))
    assert table.rows != frozenset(range(len(rng)))
    return table


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
    holds exactly the whole table's entries on those rows."""
    whole = restriction_table(rs, k)
    rng = whole.range
    for v in range(len(rng)):
        rows = ideal_rows(rng, v)
        table = restriction_table(rs, k, rng=rng, rows=rows)
        assert table.rows == rows
        assert table.columns == {
            v: {w: p for w, p in column.items() if w in rows}
            for v, column in whole.columns.items()
        }


def test_ideal_table_refuses_rows_not_closed_under_going_down():
    rng = enumerate_upto(A2, 3)
    s1s2 = rng.index[element_from_word(A2, (1, 2))]
    for rows in ({s1s2}, {0, s1s2}, {0, len(rng)}):
        with pytest.raises(ValueError, match="closed under going down"):
            restriction_table(A2, 3, rng=rng, rows=rows)


def test_verify_table_rejects_entry_outside_the_rows():
    whole = restriction_table(A2, 3)
    rng = whole.range
    s1 = rng.index[element_from_word(A2, (1,))]
    s2s1 = rng.index[element_from_word(A2, (2, 1))]
    w0 = len(rng) - 1
    table = restriction_table(A2, 3, rng=rng, rows=ideal_rows(rng, s1))
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


@pytest.mark.parametrize(
    "rs,k",
    [(A3, 6), (B2, 4), (G2, 6), (AFF_A2, 6), (AFF, 10)],
    ids=["A3", "B2", "G2", "AffineA2", "AffineA1"],
)
def test_point_table_is_the_whole_table_at_its_points(rs, k):
    """Given points, the table holds them with the points their canonical
    words step from (and, given rows too, the rows' own points), and there
    it holds exactly the whole table's entries."""
    whole = restriction_table(rs, k)
    rng = whole.range
    for x in range(len(rng)):
        # Every other x cut just above itself, the rest at the bound.
        points = upper_points(rng, x, rng.elements[x].length + 1 if x % 2 else k)
        for rows in (None, ideal_rows(rng, min(x, len(rng) - 1 - x))):
            table = restriction_table(rs, k, rng=rng, rows=rows, points=points)
            assert table.points == word_prefixes(rng, points | (rows or set()))
            assert table.columns == {
                v: {w: p for w, p in column.items() if rows is None or w in rows}
                for v, column in whole.columns.items() if v in table.points
            }


def test_point_table_refuses_points_outside_the_range():
    rng = enumerate_upto(A2, 3)
    for points in ({len(rng)}, {0, -1}):
        with pytest.raises(ValueError, match="ids of the range"):
            restriction_table(A2, 3, rng=rng, points=points)


def _point_table():
    """An A3 table over the lower ideal of s2 s1, with e and the s_i, at the
    points above s1 s3 up to length 4: the one ``mult`` builds for that
    pair.  Returns it with the whole table."""
    whole = restriction_table(A3, 6)
    rng = whole.range
    short, long = (rng.index[element_from_word(A3, x)] for x in ((2, 1), (1, 3)))
    table = restriction_table(A3, 6, rng=rng, rows=ideal_rows(rng, short),
                              points=upper_points(rng, long, 4))
    assert len(table.points) < len(rng)
    return table, whole


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
    off = max(b for b in columns if not table.rows <= rng.leq[b])
    x = max(table.rows - rng.leq[off])
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
    shared by its prefixes, is the product of the inversion roots."""
    rng = enumerate_upto(rs, k)
    view = rng.prefix(k - 2)
    for w, x in enumerate(rng):
        assert rng.inversion_product(w) == inversion_product(x)
        if w < len(view):
            assert view.inversion_product(w) is rng.inversion_product(w)


def test_verify_rejects_a_corrupted_diagonal_with_the_products_kept():
    """A second table over the same range finds the inversion products
    already kept there and still refuses a doubled diagonal."""
    table, whole = _point_table()
    rng = table.range
    assert whole.range is rng and len(rng._inversion_products) == len(rng)
    w = max(table.rows)
    table.columns[w][w] = table.columns[w][w] + table.columns[w][w]
    with pytest.raises(InternalInconsistency, match="differs from its inversion product"):
        _verify_table(table)


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


def test_value_beyond_a_truncated_range_raises():
    """xi^e is 1 at every fixed point, but a table cut at length 2 holds no
    value at a point of length 5: reading one is InsufficientBound, not 0."""
    e, s1s2s1s2s1 = identity(AFF), element_from_word(AFF, (1, 2, 1, 2, 1))
    assert restriction_table(AFF, 5).value(e, s1s2s1s2s1) == RootPolynomial.one(2)
    with pytest.raises(InsufficientBound, match="beyond the range"):
        restriction_table(AFF, 2).value(e, s1s2s1s2s1)


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
    from eqschub import apply, simple_reflection

    for i in range(1, rs.rank + 1):
        si = simple_reflection(rs, i)
        omega = rs.fundamental_weights[i - 1]
        for v in rng:
            expected = omega - apply(v, omega)
            assert expected.is_integral()
            assert billey_restrict(rs, si, v) == expected.to_polynomial()


@pytest.mark.parametrize("rs,k", SYSTEMS)
def test_triangular_with_nonzero_diagonal(rs, k):
    table = restriction_table(rs, k)
    for a, w in enumerate(table.range):
        assert not table.value(w, w).is_zero()
        for b, v in enumerate(table.range):
            if a in table.range.leq[b]:
                assert not table.value(w, v).is_zero()
