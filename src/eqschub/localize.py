"""Fixed-point restrictions of Schubert classes as exact polynomials.

Every value comes from the one-letter (nil-Hecke) recursion of
Kostant-Kumar.  Let v have canonical word ending in the letter i and put
v' = v s_i, whose canonical word is v's without its last letter.  Then

    value(w, v) = value(w, v') + [w s_i < w] * v'(alpha_i) * value(w s_i, v')

with value(w, e) = [w = e], so each column costs one multiplication by a
linear form per nonzero entry of its parent column, added into the entry
it lands on in one pass (``RootPolynomial.add_product``).  Every term is
a product of positive roots, so each value is a nonnegative integer
combination of monomials in the simple roots.

``restriction_table`` runs the recursion over a whole length-bounded
range; ``restriction_column`` runs it along one element's canonical word
and holds only that element's column, which serves ``restrict``.  Both
take the step from ``_next_column``.

``table.columns[v]`` maps the id w of each held row with a nonzero value
at the point v to that value, so it holds exactly the pairs w <= v and its
size follows the Bruhat intervals rather than the square of the range.
A value depends on the range alone, so the range keeps a store of them
(``WeylRange.memo("restrictions")``), a table computes only the rows its
points lack there, and its columns are read-only views of the store.
Each entry is checked once, when it enters the store: ``_verify_table``
checks a table's new entries together, in one pass, and they enter only
if all pass.  Its cost follows what the table built:

* support, by one set comparison per new column between its keys and
  the column's Bruhat interval (within the rows new at that point);
* zero, homogeneity and sign, once per distinct (row, polynomial object),
  since a column holds its parent's entries by reference;
* the diagonal, at each row held at its own point, against the
  range's inversion products, built from ``inversion_coords`` once per
  element and kept on the range (see ``WeylRange.inversion_product``).

The first failed check raises, naming the entry it failed at.

The value at (w, v) is built from the values of w and of w s_i < w at
v' = v s_i alone, with i the last letter of v's canonical word.  So a
table given the rows wanted at some points holds, at each point v, only
the rows D(v) that the steps up to those points read:

* D(p) holds the rows wanted, at each given point p;
* D(v') holds D(v) and each w s_i < w of it, for v' = v s_i as above;
* each w of the Bruhat lower ideal of the rows wanted is a point of its
  own, and D(w) holds those rows and w, so the table checks every
  diagonal of that ideal.

The points are those, closed under v -> v s_i, and ``table.rows_at``
maps each to its D(v), the table's one extent; the whole table maps
every point to one set of every row.  The union of the D(v) is the lower
ideal, each w of which is held at its own point.  Given a lower ideal as
the rows, D is that ideal at every point.  The one step keeps only D(v)
at v, since a row of v' that v does not hold would carry a stale value.
Which rows and points the Chevalley recurrence reads is
``structconst.recurrence_table``'s rule.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import InsufficientBound, InternalInconsistency
from .rootsys import RootPolynomial, RootSystem
from .weyl import (
    WeylElement,
    WeylRange,
    _column_is_positive,
    _identity_matrix,
    _check_same_system,
    _reflect_right,
    enumerate_upto,
    inversion_coords,
)


def _next_column(column: dict, i: int, beta: RootPolynomial, ascend, keep=None) -> dict:
    """The column of v from the column of v' = v s_i, with ``i`` 0-based
    and beta = v'(alpha_i).

    ``ascend(u, i)`` is the key of u s_i when it is longer than u, else
    None; each such entry u adds beta * value(u, v') there, in one pass
    over the terms (``RootPolynomial.add_product``).  ``keep``, when
    given, is the set of rows the new column holds, and the others are
    left out; None keeps them all.
    """
    zero = RootPolynomial.zero(beta.rank)
    out = dict(column) if keep is None else {u: p for u, p in column.items() if u in keep}
    for u, poly in column.items():
        w = ascend(u, i)
        if w is not None and (keep is None or w in keep):
            out[w] = column.get(w, zero).add_product(beta, poly)
    return out


def restriction_column(v: WeylElement) -> dict:
    """w.matrix -> value(w, v) for every w <= v, and no other key.

    Built along v's canonical word, one letter at a time, so it needs no
    enumerated range and its cost follows the Bruhat interval below v.
    """
    rs = v.rs

    def ascend(m, i):
        return _reflect_right(rs, m, i) if _column_is_positive(m, i) else None

    column = {_identity_matrix(rs.rank): RootPolynomial.one(rs.rank)}
    for i, coords in zip(v.word, inversion_coords(rs, v.word)):
        beta = RootPolynomial.from_linear(rs.rank, coords)
        column = _next_column(column, i - 1, beta, ascend)
    return column


class RestrictionTable:
    """Restriction polynomials over a length-bounded range.

    ``columns`` maps the id v of each held point (see ``WeylRange``) to
    its column: a dict from the id w of each row held at v with a nonzero
    value there to that value, and no other key.  ``restriction_table``
    gives them as read-only views (``MappingProxyType``) of the range's
    store, where each entry was checked once, when it entered, so no
    table changes what a later one reads.  ``rows_at`` is the
    one extent: a map from the id of each held point to the frozenset of
    the rows held there.  A row is held somewhere iff it is held at its
    own point, since every element of the rows' lower ideal is a point
    that holds itself.  ``value`` reads any pair of elements of the
    range's root system, zero where nothing is stored; it raises
    RankMismatch on an element of another system, InsufficientBound on a
    row or a point beyond the range, and InternalInconsistency on a point
    the table does not hold or a row it does not hold there.
    """

    def __init__(self, rng: WeylRange, columns: dict, rows_at: dict):
        self.range = rng
        self.columns = columns
        self.rows_at = rows_at
        self._zero = RootPolynomial.zero(rng.rs.rank)

    def __getstate__(self):
        """A read-only view does not pickle, so a pickled table, such as
        one a sweep hands to a spawned worker, sends its columns as dicts
        and gets them back as views of those."""
        return self.range, {v: dict(column) for v, column in self.columns.items()}, self.rows_at

    def __setstate__(self, state):
        rng, columns, rows_at = state
        self.__init__(rng, {v: MappingProxyType(column) for v, column in columns.items()}, rows_at)

    @property
    def values(self) -> dict:
        """The nonzero entries keyed by the id pair (w, v), built on each
        read.  Only the benchmark's tracer (``bench/tracing.py``) reads it;
        the engine reads ``columns``."""
        return {(w, v): poly for v, column in self.columns.items() for w, poly in column.items()}

    def holds(self, w, v=None) -> bool:
        """Whether the row of the id ``w`` is in the table, at the id ``v``
        if given, else at some point (the point ``w`` itself)."""
        return w in self.rows_at.get(w if v is None else v, ())

    def holds_point(self, v) -> bool:
        """Whether the column of the id ``v`` is in the table."""
        return v in self.rows_at

    def value(self, w: WeylElement, v: WeylElement) -> RootPolynomial:
        _check_same_system(self.range.rs, w, v)
        index = self.range.index
        a, b = index.get(w), index.get(v)
        if a is None or b is None:
            raise InsufficientBound(
                f"{v if b is None else w} lies beyond the range of bound {self.range.bound}"
            )
        if not self.holds(a):
            raise InternalInconsistency(f"the table does not hold the row of {w}")
        if not self.holds_point(b):
            raise InternalInconsistency(f"the table does not hold the point {v}")
        if not self.holds(a, b):
            raise InternalInconsistency(f"the table does not hold the row of {w} at {v}")
        return self.columns[b].get(a, self._zero)


def restriction_table(rs: RootSystem, k: int, *, rng: WeylRange | None = None,
                      rows=None, points=None) -> RestrictionTable:
    """Restriction values for every pair of ids in the length-<=-k range,
    or, given ``rows``, for the rows of ``rows`` at the points of
    ``points`` (every point if ``points`` is None).  A given ``rng`` must
    be the range of ``rs`` of bound k (else ValueError), and is used as it is.

    ``rows`` is a nonempty set of ids of the range, the rows wanted at
    the given points; ``points`` is a set of ids of the range, given with
    ``rows`` only.  Anything else is a ValueError.  The table closes both,
    as the module docstring describes: it adds each id of the Bruhat lower
    ideal of ``rows`` as a point of its own, holding the rows of ``rows``
    and itself, closes the points under v -> v s_i, i the last letter of
    v's canonical word, and holds at each point the rows the step to the
    points above it reads.  Columns are built by the one-letter recursion,
    each from the column of v with its last letter removed, and only their
    nonzero entries in the rows held there are kept.  The range's store
    serves each (point, row) entry it holds; the rows a point lacks there
    are computed from its parent's column.  The columns are read-only
    views of the store, or of a dict of its entries in the rows held
    where the store holds more.  The four table invariants
    (support exactly the Bruhat interval, homogeneity, diagonal = product
    of inversion roots, nonnegative coefficients) are verified by
    ``_verify_table`` on the new entries before any enters the store.  A
    violation raises InternalInconsistency.  Without ``rows``,
    ``rows_at`` maps every point to one set of every id.
    """
    if rng is None:
        rng = enumerate_upto(rs, k)
    elif rng.rs.cartan.entries != rs.cartan.entries or rng.rs.kind != rs.kind:
        raise ValueError("the range belongs to another root system")
    elif rng.bound != k:
        raise ValueError(f"the range has bound {rng.bound}, not {k}")
    rmul, elements, n = rng.right_mul, rng.elements, len(rng)
    given = range(n) if points is None else set(points)
    if points is not None and not all(0 <= v < n for v in given):
        raise ValueError("points must be ids of the range")
    if rows is None:
        if points is not None:
            raise ValueError("points must be given with rows")
        rows_at = dict.fromkeys(given, frozenset(given))
    else:
        rows = frozenset(rows)
        if not rows or not all(0 <= w < n for w in rows):
            raise ValueError("rows must be a nonempty set of ids of the range")
        leq = rng.leq
        rows_at = dict.fromkeys(given, rows)
        for w in frozenset().union(*(leq[w] for w in rows)):
            here = rows_at.get(w, rows)
            rows_at[w] = here if w in here else here | {w}
        # Parents have smaller ids, so each point's rows are complete before
        # they pass to its parent; a set that gains no row passes on as itself.
        for v in range(max(rows_at), 0, -1):
            here = rows_at.get(v)
            if here is None:
                continue
            i = elements[v].word[-1] - 1
            new = [x for w in here if (x := rmul[w][i]) is not None and x < w and x not in here]
            down = here.union(new) if new else here
            parent = rmul[v][i]
            there = rows_at.get(parent)
            rows_at[parent] = down if there is None or there is down else there | down

    def ascend(u, i):
        w = rmul[u][i]
        return w if w > u else None

    # The store maps each point to the set of rows computed there and a
    # dict of their nonzero values.  A point's first set is the table's own.
    store = rng.memo("restrictions")
    new_rows, new_columns, pending, columns = {}, {}, {}, {}
    made = []  # the values the steps computed
    for v in sorted(rows_at):
        rows = rows_at[v]
        known, column = store.get(v, (frozenset(), {}))
        if known is not rows and not rows <= known:
            missing = rows - known
            if v:
                i = elements[v].word[-1] - 1
                parent = rmul[v][i]
                source = pending[parent][1] if parent in pending else store[parent][1]
                fresh = _next_column(source, i, rng.last_root[v], ascend, missing)
                made += [p for w, p in fresh.items() if p is not source.get(w)]
            else:
                fresh = {0: RootPolynomial.one(rs.rank)} if 0 in missing else {}
            new_rows[v], new_columns[v] = missing, fresh
            known = known | rows if known else rows
            column = {**column, **fresh} if column else fresh
            pending[v] = known, column
        if known is not rows and known != rows:
            column = {w: p for w in rows if (p := column.get(w)) is not None}
        columns[v] = MappingProxyType(column)
    if pending:
        _verify_table(RestrictionTable(rng, new_columns, new_rows))
        # A stored value keeps its terms for the life of the range, and the
        # values share few monomials among many terms, so each packed
        # monomial is kept once per range and the terms are rekeyed with it,
        # their values unchanged.
        monomials = rng.memo("monomials")
        for poly in made:
            poly.terms = {monomials.setdefault(e, e): c for e, c in poly.terms.items()}
        store.update(pending)
    return RestrictionTable(rng, columns, rows_at)


def _verify_table(table: RestrictionTable):
    """Raise InternalInconsistency, naming the entry, unless ``table`` meets
    the four invariants.

    One pass over the held columns checks each entry for zero, homogeneity
    of degree l(w) and sign, once per distinct (row, polynomial object): a
    column copies its parent's entries by reference, at the same rows.  It
    compares each column's keys with its Bruhat interval (within the rows
    held at its point) in one set comparison.  Then a column stored at a
    point the table does not hold is refused, and the diagonal of each row
    held at its own point is compared with the range's memoised inversion
    product.  ``restriction_table`` passes it the entries new to the
    range's store: at each point, the rows new there and their values.
    """
    rng = table.range
    leq = rng.leq
    elements = rng.elements
    columns, rows_at = table.columns, table.rows_at

    def refuse(w, v, what, support=True):
        raise InternalInconsistency(
            f"{'support violation: ' if support else ''}"
            f"value({elements[w]}, {elements[v]}) {what}"
        )

    held = sorted(rows_at)
    checked: dict = {}
    for v in held:
        below = leq[v] & rows_at[v]
        column = columns.get(v, {})
        for w, poly in column.items():
            if checked.get(id(poly)) == w:
                continue
            checked[id(poly)] = w
            degree = elements[w].length
            if poly.is_homogeneous_of(degree) and poly.sign_pattern() == "nonneg":
                continue
            if poly.is_zero():
                refuse(w, v, "zero but w <= v" if w in below else "stored as zero")
            if w not in leq[v]:
                refuse(w, v, "nonzero but w !<= v")
            if not poly.is_homogeneous_of(degree):
                refuse(w, v, f"is not homogeneous of degree {degree}", False)
            refuse(w, v, "has negative coefficients", False)
        if len(column) != len(below) or not below.issuperset(column):
            missing = below.difference(column)
            if missing:
                refuse(min(missing), v, "zero but w <= v")
            w = next(w for w in column if w not in below)
            refuse(w, v, "nonzero but w !<= v" if w not in leq[v] else "stored outside the rows")
    for v in sorted(columns.keys() - held):
        for w in columns[v]:
            refuse(w, v, "stored outside the points")
    for w in filter(table.holds, held):
        if columns[w].get(w) != rng.inversion_product(w):
            raise InternalInconsistency(
                f"diagonal value at {elements[w]} differs from its inversion product"
            )
