"""Fixed-point restrictions of Schubert classes as exact polynomials.

Every value comes from the one-letter (nil-Hecke) recursion of
Kostant-Kumar.  Let v have canonical word ending in the letter i and put
v' = v s_i, whose canonical word is v's without its last letter.  Then

    value(w, v) = value(w, v') + [w s_i < w] * v'(alpha_i) * value(w s_i, v')

with value(w, e) = [w = e], so each column costs one multiplication by a
linear form per nonzero entry of its parent column.  Every term is a
product of positive roots, so each value is a nonnegative integer
combination of monomials in the simple roots.

``restriction_table`` runs the recursion over a whole length-bounded
range; ``restriction_column`` runs it along one element's canonical word
and holds only that element's column, which serves ``restrict``.  Both
take the step from ``_next_column``.

The table keeps its columns as built: ``table.columns[v]`` maps the id w
of each held row with a nonzero value at the point v to that value, so it
holds exactly the pairs w <= v and its size follows the Bruhat intervals
rather than the square of the range.  ``_verify_table`` checks each table
as it is built, in one pass over its columns, and its cost follows what
the table built:

* support, by one set comparison per held column between its keys and
  the column's Bruhat interval (within the rows);
* zero, homogeneity and sign, once per distinct (row, polynomial object),
  since a column holds its parent's entries by reference;
* the diagonal, at the held rows that are held points only, against the
  range's inversion products, built from ``inversion_coords`` once per
  element and kept on the range (see ``WeylRange.inversion_product``).

The first failed check raises, naming the entry it failed at.

The row of w (its values at every v) is built from the rows of w and
w s_i only, with w s_i < w, so the rows of a Bruhat lower ideal are
closed under the recursion: given such ``rows``, the table holds those
rows and nothing else.  The column of v is built from that of v s_i
alone, with i the last letter of v's canonical word, so a set of
``points`` closed under that step is closed under the recursion too:
given it, the table holds those columns only.  A one-pair ``mult``
reads only the row of the shorter element and those of e and the s_i, at
the fixed points above the longer element up to length l(u) + l(v), so
it builds just the lower ideal of the shorter element at those points
and the points they step from.
"""

from __future__ import annotations

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


def _next_column(column: dict, i: int, beta: RootPolynomial, ascend) -> dict:
    """The column of v from the column of v' = v s_i, with ``i`` 0-based
    and beta = v'(alpha_i).

    ``ascend(u, i)`` is the key of u s_i when it is longer than u, else
    None; each such entry u adds beta * value(u, v') there.
    """
    out = dict(column)
    for u, poly in column.items():
        w = ascend(u, i)
        if w is not None:
            term = beta * poly
            prev = out.get(w)
            out[w] = term if prev is None else prev + term
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
    its column: a dict from the id w of each held row with a nonzero value
    at v to that value, and no other key.  ``rows`` is the set of ids w
    whose rows the table holds and ``points`` the set of ids v whose
    columns it holds, each None when it holds them all.  ``value`` reads
    any pair of elements of the table's root system, zero where nothing is
    stored; it raises RankMismatch on an element of another system,
    InternalInconsistency on a row or a point the table does not hold, and
    InsufficientBound on a point beyond the range.
    """

    def __init__(self, rs: RootSystem, rng: WeylRange, columns: dict, rows=None, points=None):
        self.rs = rs
        self.range = rng
        self.columns = columns
        self.rows = rows
        self.points = points
        self._zero = RootPolynomial.zero(rs.rank)

    @property
    def values(self) -> dict:
        """The nonzero entries keyed by the id pair (w, v), built on each
        read.  Only the benchmark's tracer (``bench/tracing.py``) reads it;
        the engine reads ``columns``."""
        return {(w, v): poly for v, column in self.columns.items() for w, poly in column.items()}

    def holds(self, w) -> bool:
        """Whether the row of the id ``w`` is in the table."""
        return self.rows is None or w in self.rows

    def holds_point(self, v) -> bool:
        """Whether the column of the id ``v`` is in the table."""
        return self.points is None or v in self.points

    def value(self, w: WeylElement, v: WeylElement) -> RootPolynomial:
        _check_same_system(self.rs, w, v)
        index = self.range.index
        a, b = index.get(w), index.get(v)
        if b is None:
            raise InsufficientBound(f"{v} lies beyond the range of bound {self.range.bound}")
        if not self.holds(a):
            raise InternalInconsistency(f"the table does not hold the row of {w}")
        if not self.holds_point(b):
            raise InternalInconsistency(f"the table does not hold the point {v}")
        return self.columns[b].get(a, self._zero)


def restriction_table(rs: RootSystem, k: int, *, rng: WeylRange | None = None,
                      rows=None, points=None) -> RestrictionTable:
    """Restriction values for every pair of ids in the length-<=-k range,
    or, given ``rows``, for the pairs (w, v) with w in ``rows``, and, given
    ``points``, with v in ``points``.

    ``rows`` is a set of ids closed under w -> w s_i < w, such as a Bruhat
    lower ideal; anything else is a ValueError.  ``points`` is a set of ids
    of the range; the table closes it under v -> v s_i, i the last letter
    of v's canonical word, and adds the ids of ``rows``, so it holds the
    diagonal entry of each row.  Columns are built by the one-letter
    recursion, each from the column of v with its last letter removed, and
    only their nonzero entries in ``rows`` are kept.  The four table
    invariants (support exactly the Bruhat interval, homogeneity, diagonal
    = product of inversion roots, nonnegative coefficients) are verified
    by ``_verify_table`` on the entries held, as the module docstring
    describes.  A violation raises InternalInconsistency.
    """
    if rng is None:
        rng = enumerate_upto(rs, k)
    rmul = rng.right_mul
    if rows is not None:
        rows = frozenset(rows)
        if 0 not in rows or not all(
            0 <= w < len(rng) and all(x is None or x > w or x in rows for x in rmul[w])
            for w in rows
        ):
            raise ValueError("rows must be ids of the range closed under going down")
    held = range(len(rng))
    if points is not None:
        points = set(points).union(rows or ())
        if not all(0 <= v < len(rng) for v in points):
            raise ValueError("points must be ids of the range")
        closed = {0}
        for v in points:
            while v not in closed:
                closed.add(v)
                v = rmul[v][rng.elements[v].word[-1] - 1]
        points = frozenset(closed)
        held = sorted(points)

    def ascend(u, i):
        w = rmul[u][i]
        return w if w > u and (rows is None or w in rows) else None

    columns = {0: {0: RootPolynomial.one(rs.rank)}}
    for v in held[1:]:
        i = rng.elements[v].word[-1] - 1
        columns[v] = _next_column(columns[rmul[v][i]], i, rng.last_root[v], ascend)
    table = RestrictionTable(rs, rng, columns, rows, points)
    _verify_table(table)
    return table


def _verify_table(table: RestrictionTable):
    """Raise InternalInconsistency, naming the entry, unless ``table`` meets
    the four invariants.

    One pass over the held columns checks each entry for zero, homogeneity
    of degree l(w) and sign, once per distinct (row, polynomial object): a
    column copies its parent's entries by reference, at the same rows.  It
    compares each column's keys with its Bruhat interval (within the rows)
    in one set comparison.  Then a column stored at a point the table does
    not hold is refused, and each held diagonal is compared with the
    range's memoised inversion product.
    """
    rng = table.range
    leq = rng.leq
    elements = rng.elements
    columns = table.columns
    rows, points = table.rows, table.points

    def refuse(w, v, what, support=True):
        raise InternalInconsistency(
            f"{'support violation: ' if support else ''}"
            f"value({elements[w]}, {elements[v]}) {what}"
        )

    held = range(len(leq)) if points is None else sorted(points)
    checked: dict = {}
    for v in held:
        below = leq[v] if rows is None else leq[v] & rows
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
    diagonal = held if rows is None else rows if points is None else rows & points
    for w in sorted(diagonal):
        if columns[w].get(w) != rng.inversion_product(w):
            raise InternalInconsistency(
                f"diagonal value at {elements[w]} differs from its inversion product"
            )
