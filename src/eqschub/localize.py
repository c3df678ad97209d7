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

The table stores only its nonzero entries, which are exactly the pairs
w <= v, so its size follows the Bruhat intervals rather than the square
of the range.  ``_verify_table`` checks each table as it is built, and
its cost follows what the table built:

* support, by one set comparison per held column between the rows stored
  there and the column's Bruhat interval (within the rows);
* zero, homogeneity and sign, once per distinct (row, polynomial object),
  since a column holds its parent's entries by reference;
* the diagonal, at the held rows that are held points only, against the
  range's inversion products, built from ``inversion_coords`` once per
  element and kept on the range (see ``WeylRange.inversion_product``).

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

    ``values`` maps the ids (w, v) of the range (see ``WeylRange``) to
    their polynomial, for the nonzero entries only.  ``rows`` is the set of
    ids w whose rows the table holds and ``points`` the set of ids v whose
    columns it holds, each None when it holds them all.  ``value`` reads
    any pair of elements, zero where nothing is stored; it raises
    InternalInconsistency on a row or a point the table does not hold, and
    InsufficientBound on a point beyond the range.
    """

    def __init__(self, rs: RootSystem, rng: WeylRange, values: dict, rows=None, points=None):
        self.rs = rs
        self.range = rng
        self.values = values
        self.rows = rows
        self.points = points
        self._zero = RootPolynomial.zero(rs.rank)

    def holds(self, w) -> bool:
        """Whether the row of the id ``w`` is in the table."""
        return self.rows is None or w in self.rows

    def holds_point(self, v) -> bool:
        """Whether the column of the id ``v`` is in the table."""
        return self.points is None or v in self.points

    def value(self, w: WeylElement, v: WeylElement) -> RootPolynomial:
        index = self.range.index
        a, b = index.get(w), index.get(v)
        if b is None:
            raise InsufficientBound(f"{v} lies beyond the range of bound {self.range.bound}")
        if not self.holds(a):
            raise InternalInconsistency(f"the table does not hold the row of {w}")
        if not self.holds_point(b):
            raise InternalInconsistency(f"the table does not hold the point {v}")
        return self.values.get((a, b), self._zero)


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
    only their nonzero entries in ``rows`` are stored.  The four table
    invariants (support exactly the Bruhat interval, homogeneity, diagonal
    = product of inversion roots, nonnegative coefficients) are verified
    by ``_verify_table`` on the entries held, as the module docstring
    describes: support per held column, the per-entry invariants per
    distinct stored polynomial and the diagonal per held row at the held
    points.  A violation raises InternalInconsistency.
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
    values = {(w, v): poly for v, column in columns.items() for w, poly in column.items()}
    table = RestrictionTable(rs, rng, values, rows, points)
    _verify_table(table)
    return table


def _verify_table(table: RestrictionTable):
    """Raise InternalInconsistency unless ``table`` meets the four invariants.

    One pass over the stored entries groups their rows by column and checks
    each entry for zero, homogeneity of degree l(w) and sign, once per
    distinct (row, polynomial object): a column copies its parent's
    entries by reference, at the same rows.  Each held column's rows are
    then compared with its Bruhat interval in one set comparison, and each
    held diagonal with the range's memoised inversion product.  On a
    failure ``_name_violation`` walks the entries to name the first one.
    """
    rng = table.range
    leq = rng.leq
    elements = rng.elements
    values = table.values
    rows, points = table.rows, table.points
    columns: dict = {}
    checked: dict = {}
    sound = True
    for (w, v), poly in values.items():
        column = columns.get(v)
        if column is None:
            columns[v] = column = []
        column.append(w)
        if checked.get(id(poly)) != w:
            checked[id(poly)] = w
            # A zero's sign pattern is "zero", so this refuses it too.
            sound = sound and (
                poly.is_homogeneous_of(elements[w].length) and poly.sign_pattern() == "nonneg"
            )
    held = range(len(leq)) if points is None else points
    for v in held:
        below = leq[v] if rows is None else leq[v] & rows
        column = columns.pop(v, ())
        if len(column) != len(below) or not below.issuperset(column):
            sound = False
            break
    if not sound or columns:
        _name_violation(table)
    diagonal = held if rows is None else rows if points is None else rows & points
    for w in sorted(diagonal):
        if values.get((w, w)) != rng.inversion_product(w):
            raise InternalInconsistency(
                f"diagonal value at {elements[w]} differs from its inversion product"
            )


def _name_violation(table: RestrictionTable):
    """Raise the InternalInconsistency naming the first entry of ``table``
    that breaks support, homogeneity or sign: first a zero in a held
    Bruhat interval, then the stored entries in order, then one stored
    outside the rows or the points."""
    rng = table.range
    leq = rng.leq
    elements = rng.elements
    values = table.values
    rows, points = table.rows, table.points
    for v in range(len(leq)) if points is None else sorted(points):
        below = leq[v]
        for w in below if rows is None else below & rows:
            poly = values.get((w, v))
            if poly is None or poly.is_zero():
                raise InternalInconsistency(
                    f"support violation: value({elements[w]}, {elements[v]}) zero but w <= v"
                )
    for (w, v), poly in values.items():
        if poly.is_zero():
            raise InternalInconsistency(
                f"support violation: value({elements[w]}, {elements[v]}) stored as zero"
            )
        if w not in leq[v]:
            raise InternalInconsistency(
                f"support violation: value({elements[w]}, {elements[v]}) nonzero but w !<= v"
            )
        if not poly.is_homogeneous_of(elements[w].length):
            raise InternalInconsistency(
                f"value({elements[w]}, {elements[v]}) is not homogeneous of degree "
                f"{elements[w].length}"
            )
        if poly.sign_pattern() not in ("nonneg", "zero"):
            raise InternalInconsistency(
                f"value({elements[w]}, {elements[v]}) has negative coefficients"
            )
    for w, v in values:
        if not (table.holds(w) and table.holds_point(v)):
            where = "points" if table.holds(w) else "rows"
            raise InternalInconsistency(
                f"support violation: value({elements[w]}, {elements[v]}) "
                f"stored outside the {where}"
            )
