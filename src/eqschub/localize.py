"""Fixed-point restrictions of Schubert classes as exact polynomials.

The table is built by the one-letter (nil-Hecke) recursion of
Kostant-Kumar.  Let v have canonical word ending in the letter i and put
v' = v s_i, whose canonical word is v's without its last letter.  Then

    value(w, v) = value(w, v') + [w s_i < w] * v'(alpha_i) * value(w s_i, v')

with value(w, e) = [w = e], so each column costs one multiplication by a
linear form per nonzero entry of its parent column.

Unrolling the recursion along a reduced word (i1, .., iN) of v gives the
subword formula: with beta(j) = s_{i1} .. s_{i_{j-1}} (alpha_{i_j}),

    value(w, v) = sum over position subsets J such that the subword at J
                  is a reduced word for w, of prod_{j in J} beta(j).

``billey_restrict`` evaluates that formula for a single pair; it serves
the ``restrict`` command and is the test suite's independent check of the
table.  Every term is a product of positive roots, so each value is a
nonnegative integer combination of monomials in the simple roots.

The table stores only its nonzero entries, which are exactly the pairs
w <= v, so its size and the cost of its invariant check follow the
Bruhat intervals rather than the square of the range.  It uses the KK
index convention; the Arabia and Billey conventions are pure reindexings
by (w, v) -> (w^{-1}, v^{-1}).
"""

from __future__ import annotations

from .errors import InternalInconsistency, RankMismatch
from .rootsys import RootPolynomial, RootSystem
from .weyl import (
    WeylElement,
    WeylRange,
    _column_is_positive,
    _identity_matrix,
    _reflect_right,
    element_from_word,
    enumerate_upto,
    inversion_coords,
)

CONVENTIONS = ("KK", "Arabia", "Billey")


def billey_restrict(
    rs: RootSystem,
    w: WeylElement,
    v: WeylElement,
    *,
    reduced_word: tuple[int, ...] | None = None,
) -> RootPolynomial:
    """Restriction value for the pair (w, v); zero unless w <= v.

    ``reduced_word`` may supply an alternative reduced word for v; the
    result does not depend on the choice (checked by the test suite, not
    assumed here).
    """
    if w.rs.rank != rs.rank or v.rs.rank != rs.rank:
        raise RankMismatch("elements do not match the root system")
    word = v.word if reduced_word is None else tuple(reduced_word)
    if reduced_word is not None:
        cand = element_from_word(rs, word)
        if cand != v or len(word) != v.length:
            raise ValueError("supplied word is not a reduced word for v")
    betas = [RootPolynomial.from_linear(rs.rank, c) for c in inversion_coords(rs, word)]
    n = len(word)
    target = w.matrix
    lw = w.length
    ident = _identity_matrix(rs.rank)
    zero = RootPolynomial.zero(rs.rank)
    one = RootPolynomial.one(rs.rank)

    def walk(pos: int, partial, chosen: int, prod: RootPolynomial) -> RootPolynomial:
        if chosen == lw:
            return prod if partial == target else zero
        if chosen + (n - pos) < lw:
            return zero
        acc = walk(pos + 1, partial, chosen, prod)
        i = word[pos] - 1
        if _column_is_positive(partial, i):
            acc = acc + walk(
                pos + 1,
                _reflect_right(rs, partial, i),
                chosen + 1,
                prod * betas[pos],
            )
        return acc

    return walk(0, ident, 0, one)


class RestrictionTable:
    """Restriction polynomials over a length-bounded range.

    ``values`` maps (w, v) to its polynomial for the nonzero entries only;
    ``value`` reads any pair, zero where nothing is stored.
    """

    def __init__(self, rs: RootSystem, rng: WeylRange, values: dict, convention: str):
        self.rs = rs
        self.range = rng
        self.values = values
        self.convention = convention
        self._zero = RootPolynomial.zero(rs.rank)

    def value(self, w: WeylElement, v: WeylElement) -> RootPolynomial:
        return self.values.get((w, v), self._zero)


def restriction_table(rs: RootSystem, k: int, *, rng: WeylRange | None = None) -> RestrictionTable:
    """Restriction values for every pair in the length-<=-k range.

    Columns are built by the one-letter recursion, each from the column of
    v with its last letter removed, and only their nonzero entries are
    stored.  The four table invariants (support exactly the Bruhat
    interval, homogeneity, diagonal = product of inversion roots,
    nonnegative coefficients) are verified during construction; a
    violation raises InternalInconsistency.
    """
    if rng is None:
        rng = enumerate_upto(rs, k)
    rmul = rng.right_mul
    roots = rng.last_root
    columns: dict = {}
    for v in rng.elements:
        if not v.word:
            columns[v] = {v: RootPolynomial.one(rs.rank)}
            continue
        i = v.word[-1] - 1
        parent = rmul[v][i]
        beta = roots[v]
        column = dict(columns[parent])
        for u, poly in columns[parent].items():
            w = rmul[u][i]
            if w.length > u.length:
                term = beta * poly
                column[w] = column[w] + term if w in column else term
        columns[v] = column
    values = {(w, v): poly for v, column in columns.items() for w, poly in column.items()}
    table = RestrictionTable(rs, rng, values, "KK")
    _verify_table(table)
    return table


def _verify_table(table: RestrictionTable):
    rng = table.range
    leq = rng.leq
    values = table.values
    for v in rng.elements:
        for w in leq[v]:
            poly = values.get((w, v))
            if poly is None or poly.is_zero():
                raise InternalInconsistency(
                    f"support violation: value({w}, {v}) zero but w <= v"
                )
    for (w, v), poly in values.items():
        if poly.is_zero():
            raise InternalInconsistency(
                f"support violation: value({w}, {v}) stored as zero"
            )
        if w not in leq[v]:
            raise InternalInconsistency(
                f"support violation: value({w}, {v}) nonzero but w !<= v"
            )
        if not poly.is_homogeneous_of(w.length):
            raise InternalInconsistency(
                f"value({w}, {v}) is not homogeneous of degree {w.length}"
            )
        if poly.sign_pattern() not in ("nonneg", "zero"):
            raise InternalInconsistency(f"value({w}, {v}) has negative coefficients")
    one = RootPolynomial.one(table.rs.rank)
    for w in rng.elements:
        diag = one
        for coords in inversion_coords(table.rs, w.word):
            diag = diag * RootPolynomial.from_linear(table.rs.rank, coords)
        if table.value(w, w) != diag:
            raise InternalInconsistency(
                f"diagonal value at {w} differs from its inversion product"
            )


def convert_convention(table: RestrictionTable, target: str) -> RestrictionTable:
    """Reindex a table into another convention; a round trip is the identity.

    KK <-> Arabia and KK <-> Billey both send (w, v) to (w^{-1}, v^{-1});
    Arabia and Billey therefore coincide as stored tables.
    """
    if target not in CONVENTIONS:
        raise ValueError(f"unknown convention {target!r}")
    if table.convention not in CONVENTIONS:
        raise ValueError(f"table carries unknown convention {table.convention!r}")
    flip = (table.convention == "KK") != (target == "KK")
    if not flip:
        if table.convention == target:
            return table
        return RestrictionTable(table.rs, table.range, dict(table.values), target)
    inv = table.range.inverses
    values = {(inv[w], inv[v]): poly for (w, v), poly in table.values.items()}
    return RestrictionTable(table.rs, table.range, values, target)
