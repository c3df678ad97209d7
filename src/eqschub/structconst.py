"""Structure constants from restrictions, by the Chevalley recurrence.

The x-basis constants c_uv^w of a pair (u, v) are defined by
xi^u xi^v = sum_w c_uv^w xi^w, where xi^u(w) is the restriction table's
value at (u, w), ``table.columns[w].get(u)``.  They vanish unless u <= w
and v <= w, are homogeneous of degree l(u) + l(v) - l(w), and are
symmetric in u and v.

The Chevalley formula (Kostant-Kumar, Adv. Math. 62, 1986) multiplies by a
degree-one class:

    xi^{s_i} xi^u = xi^{s_i}(u) xi^u + sum_{x covers u} c_{s_i,u}^x xi^x.

Multiplying xi^u xi^v by xi^{s_i} in the two orders and comparing the
coefficients of xi^w gives (Knutson, arXiv math/0306304)

    (xi^{s_i}(w) - xi^{s_i}(u)) c_uv^w
        = sum_{x covers u} c_{s_i,u}^x c_xv^w
          - sum_{w covers y} c_{s_i,y}^w c_uv^y,

with base case c_uv^u = xi^v(u).  So with u taken in decreasing length
and, for each u, w in increasing length, every entry costs integer
multiples of entries already known and one division by one linear form.
Any letter i with a nonzero left factor gives the same constants, as they
are unique; one exists for every u < w, since xi^{s_i}(w) = omega_i -
w(omega_i) and only the identity fixes every fundamental weight.  The
recurrence takes the one whose left factor has the fewest nonzero
coordinates, the smallest on a tie, as a divisor of fewer terms costs
less to divide by.  The entries of u read only those of the x covering u
at the same w, so the constants of (u, v) need only the x >= u and the w
with l(w) <= l(u) + l(v), which a truncated (Kac-Moody) range must hold:
``column_constants`` computes many u over the union of their sets.  As
c_uv = c_vu, ``structure_constants`` walks the x above the longer
element of its pair and reads the row of the shorter one (the given v on
a tie), so it walks the fewest x.

One rule, ``recurrence_table``, gives the table the recurrence reads:
the rows of the columns themselves at the fixed points above the other
elements, up to the longest length computed.  ``localize`` closes both
sets: it adds the points the table's steps start from and holds at each
only the rows those steps read, with the columns' Bruhat lower ideals as
points of their own.  So ``mult`` reads ``pair_table``: the row of the
shorter element at the points above the longer one up to length
l(u) + l(v), and below them the rows the steps up to those points read.
A sweep's swept elements form a lower ideal holding e, so its table holds
their rows at every point.  A column that would read a point its table
does not hold, or its row at a point that does not hold it, raises
InternalInconsistency instead of reading zero.

The Bruhat order and the linear forms xi^{s_i} come from the range
(``WeylRange.xi``, summed from the inversion roots along canonical
words), and the values xi^v from the restriction table, so no
fundamental weight is needed; the steps at each x, which depend on the
range alone, are kept on the range (``_recurrence``).  For y covered by
w = y s_beta, the Chevalley integer is
c_{s_i,y}^w = <omega_i, beta^vee> >= 0, and

    xi^{s_i}(w) - xi^{s_i}(y) = y(omega_i) - y s_beta(omega_i)
                              = <omega_i, beta^vee> y(beta)

with y(beta) a positive real root.  A real root is the image of a simple
root under an integer matrix with integer inverse, so its coefficients
have gcd 1, and the integer is the gcd of the difference's coefficients.
A negative coefficient there, an inexact division or a value that is not
homogeneous of the right degree is an InternalInconsistency.

The x-basis values are the constants of the Schubert-class basis dual to
the cell closures.  The y-basis table for the same index pair is obtained
by substituting each simple root with its image under the longest
element; its entries expand with nonnegative coefficients in the negated
simple roots (coefficient sign (-1)^degree in the plain monomials).
``SIGN_RULES`` names each basis's rule, and ``terms_sign_ok`` tests it
on (monomial, coefficient) pairs, for the certificates and for the sweep
cache's reader.  A certificate keeps each value's packed terms, sorted.
A rule that reads degrees reads them off the keys' top field there, and
sums each stored exponent in the reader.  ``record_text`` renders records
from those terms: the text that starts a term is kept per packed key of
each rank, and the items of the ids without a value, with each word's
JSON, per id on the table's range, so a record copies the zero items and
rewrites only its nonzero ids.  ``text_lines`` renders ``mult``'s text lines the same way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import gcd
from operator import sub

from .errors import (
    DomainViolation,
    InsufficientBound,
    InternalInconsistency,
    NotFiniteType,
    RankMismatch,
)
from .localize import RestrictionTable, restriction_table
from .rootsys import (
    FIELD_BITS, FINITE, LinearForm, RootPolynomial, evaluate_many, exact_quotient,
    homogeneous_of, unpack_terms,
)
from .weyl import WeylElement, WeylRange, _check_same_system, longest_element, word_text


class StructureTable:
    """The constants of one index pair (u, v) over the range ``rng``, with
    a basis tag.

    ``rs`` is the range's root system, and ``order`` lists the range's
    first elements, those up to length l(u) + l(v), so ``order[k]`` is
    the element of id k; ``values`` maps the id of each w with a nonzero
    constant to it, in increasing id, and holds no zero.  ``range`` is
    ``rng``, from which ``record_text`` and ``text_lines`` read the text
    of the ids without a value.
    """

    def __init__(self, basis: str, u: WeylElement, v: WeylElement, values: dict,
                 rng: WeylRange):
        self.rs = rng.rs
        self.basis = basis
        self.u = u
        self.v = v
        self.values = values
        self.order = rng.elements[:bisect_right(rng.lengths, u.length + v.length)]
        self.range = rng


def structure_constants(table: RestrictionTable, u: WeylElement, v: WeylElement) -> StructureTable:
    """The x-basis constants of the pair (u, v), by the recurrence over the
    x >= the longer of u and v, reading the row of the other (see the
    module docstring); on a tie the row read is v's.  The result keeps u
    and v in the order given.

    Requires a table bound of at least length(u) + length(v), unless the
    range already exhausts the whole group (finite type), in which case
    any bound works because no fixed points beyond the enumerated ones
    exist.
    """
    short, long = _pair_ids(table.range, u, v)
    s = column_constants(table, short, [long])[0]
    s.u, s.v = u, v
    return s


def pair_table(rng: WeylRange, u: WeylElement, v: WeylElement) -> RestrictionTable:
    """The table ``structure_constants`` reads for the pair (u, v) over
    ``rng`` (see the module docstring); raises as it does on elements of
    another system or a range too short."""
    short, long = _pair_ids(rng, u, v)
    return recurrence_table(rng, [short], [long], u.length + v.length)


def recurrence_table(rng: WeylRange, vs, us, top: int) -> RestrictionTable:
    """The table the recurrence reads for the columns of the ids ``vs`` at
    the ids ``us`` up to length ``top``: the rows ``vs`` at the points
    x >= some u with l(x) <= ``top``, which ``restriction_table`` closes
    (see the module docstring)."""
    points = _points_above(rng, us, top)
    return restriction_table(rng.rs, rng.bound, rng=rng, rows=vs, points=points)


def _points_above(rng: WeylRange, us, top: int) -> list[int]:
    """The ids x >= some id u of ``us`` with l(x) <= ``top``, in increasing
    order.  Ids run in length order, so they lie from the least u up to the
    last id of length ``top``."""
    leq = rng.leq
    stop = bisect_right(rng.lengths, top)
    return [x for x in range(min(us), stop) if any(u in leq[x] for u in us)]


def _pair_ids(rng: WeylRange, u: WeylElement, v: WeylElement) -> tuple[int, int]:
    """Ids of the shorter and longer of u and v (v on a tie), after the system and bound checks."""
    _check_same_system(rng.rs, u, v)
    _check_bound(rng, u.length + v.length, rng.bound)
    short, long = (u, v) if u.length < v.length else (v, u)
    return rng.index[short], rng.index[long]


def _within_bound(rng: WeylRange, top: int, bound: int) -> bool:
    """Whether the ids of ``rng`` up to length ``bound`` hold every fixed
    point a pair with l(u) + l(v) = ``top`` reads: they do if ``top`` <=
    ``bound``, or if they are the whole group."""
    return top <= bound or (rng.complete and rng.lengths[-1] <= bound)


def _check_bound(rng: WeylRange, top: int, bound: int):
    if not _within_bound(rng, top, bound):
        raise InsufficientBound(f"table bound {bound} < length(u)+length(v) = {top}")


def _recurrence(rng: WeylRange, x: int):
    """What the Chevalley recurrence reads at the id ``x`` of ``rng``:
    (steps, covers_up, covers_down).

    * ``steps`` lists (w, i, divisor) for each w > x of the range in
      increasing id, so in increasing length, with i the recurrence's
      letter at (x, w), the separating one of the fewest-term divisor
      (smallest on a tie), and the divisor xi^{s_i}(w) - xi^{s_i}(x)
      prepared as a ``LinearForm``;
    * ``covers_up[i]`` lists (w, c_{s_i,x}^w) for the w covering x, and
      ``covers_down[i]`` lists (y, c_{s_i,y}^x) for the y that x covers,
      each in increasing id and without the zero integers, which
      ``_chevalley_integers`` gives once per cover.

    They depend on the pair of ids alone, so the range keeps them in its
    memo "recurrence", built and checked on the first read of x; they list
    every w of the range, so a reader of a smaller bound stops at its own
    last id.  Divisors are shared through the memo "recurrence divisors".
    """
    memo = rng.memo("recurrence")
    if x in memo:
        return memo[x]
    n = len(rng)
    elements, xi, leq, lengths = rng.elements, rng.xi, rng.leq, rng.lengths
    divisors = rng.memo("recurrence divisors")
    rank = rng.rs.rank
    # Ids run in length order, so every w > x has a larger id, the y that x
    # covers lie in [below, here) and the w covering x below ``after``.
    length = lengths[x]
    below, here, after = (bisect_left(lengths, k) for k in (length - 1, length, length + 2))
    steps = []
    up = [[] for _ in range(rank)]
    for w in [w for w in range(x + 1, n) if x in leq[w]]:
        at_x, at_w = xi[x], xi[w]
        best = None
        for i, (p, q) in enumerate(zip(at_w, at_x)):
            if p == q:
                continue
            diff = tuple(map(sub, p, q))
            size = len(diff) - diff.count(0)
            if best is None or size < best[0]:
                best = size, i, diff
        if best is None:
            raise InternalInconsistency(f"no letter separates {elements[x]} < {elements[w]}")
        if w < after:
            for i, k in _chevalley_integers(rng, x, w):
                up[i].append((w, k))
        _, i, diff = best
        divisor = divisors.get(diff)
        if divisor is None:
            divisor = divisors[diff] = LinearForm.from_linear(len(diff), diff)
        steps.append((w, i, divisor))
    down = [[] for _ in range(rank)]
    lower = leq[x]
    for y in range(below, here):
        if y in lower:
            for i, k in _chevalley_integers(rng, y, x):
                down[i].append((y, k))
    memo[x] = steps, up, down
    return memo[x]


def _chevalley_integers(rng: WeylRange, y: int, w: int) -> list[tuple[int, int]]:
    """(i, c_{s_i,y}^w) for each letter i whose integer is nonzero, for the
    ids y < w that w covers: the gcd of the coefficients of the nonzero
    difference of xi^{s_i} at w and at y, which must all be nonnegative.
    They depend on the pair of ids alone, so the range keeps them, by
    (y, w), in its memo "chevalley integers": the covers up from y and
    down from w read one computation and one check."""
    memo = rng.memo("chevalley integers")
    out = memo.get((y, w))
    if out is None:
        out = []
        for i, (p, q) in enumerate(zip(rng.xi[w], rng.xi[y])):
            if p == q:
                continue
            diff = tuple(map(sub, p, q))
            if min(diff) < 0:
                elements = rng.elements
                raise InternalInconsistency(
                    f"xi^s{i + 1} at {elements[w]} minus at {elements[y]}"
                    " has a negative coefficient"
                )
            out.append((i, gcd(*diff)))
        memo[y, w] = out
    return out


def _check_point(table: RestrictionTable, b, a=None) -> None:
    """An InternalInconsistency unless ``table`` holds the point of the id
    ``b`` (and the row of the id ``a`` there, if given)."""
    if not table.holds_point(b):
        raise InternalInconsistency(f"the restriction table does not hold point {b}")
    if a is not None and not table.holds(a, b):
        raise InternalInconsistency(f"the restriction table does not hold row {a} at point {b}")


def _checked_quotient(terms: dict, divisor, degree: int, rank: int, u, v, w) -> dict:
    """The packed terms ``terms`` of rank ``rank`` divided exactly by the
    ``LinearForm`` ``divisor``, or ``terms`` themselves if the divisor is
    None; an inexact division or a value not homogeneous of ``degree`` is
    an InternalInconsistency at (u, v, w)."""
    if divisor is not None:
        terms = exact_quotient(terms, divisor)
        if terms is None:
            raise InternalInconsistency(
                f"inexact division at (u={u.word_text()}, v={v.word_text()}, w={w.word_text()})"
            )
    if not homogeneous_of(terms, rank, degree):
        raise InternalInconsistency(
            f"value at (u={u.word_text()}, v={v.word_text()}, w={w.word_text()}) "
            f"is not homogeneous of degree {degree}"
        )
    return terms


def column_constants(table: RestrictionTable, v: int, us) -> list[StructureTable]:
    """The x-basis constants of the pairs (u, v), for the id v and each id
    u of ``us``, by the Chevalley recurrence (see the module docstring)
    over ``table``, with the steps of its range (``_recurrence``).

    Computes the column of v at every x above some u, longest first, up
    to length max(l(u)) + l(v); each table holds the nonzero constants of
    one pair at the w up to length l(u) + l(v).
    """
    rng = table.range
    elements, length = rng.elements, rng.lengths
    lv = length[v]
    top = max(length[u] for u in us) + lv
    _check_bound(rng, top, rng.bound)
    # The column reads row v at every x >= some u up to length top.
    xs = _points_above(rng, us, top)
    for x in xs:
        _check_point(table, x, v)
    rank = rng.rs.rank
    columns = table.columns
    # The packed terms of each value, by x and then w, and covers_down by x.
    column: dict = {}
    down: dict = {}
    # Every w > x read below is some u's upper element, longer than x, so
    # it was read before x.
    for x in reversed(xs):
        steps, covers_up, down[x] = _recurrence(rng, x)
        degree = length[x] + lv
        end = bisect_right(length, min(degree, top))
        values = {}
        base = columns[x].get(v)
        if base is not None:
            values[x] = _checked_quotient(
                base.terms, None, lv, rank, elements[x], elements[v], elements[x]
            )
        for w, i, divisor in steps:
            if w >= end:
                break
            if v not in columns[w]:
                continue
            # The right side of the recurrence, summed into a copy of its first term.
            acc = None
            for x1, k in covers_up[i]:
                terms = column[x1].get(w)
                if terms is None:
                    continue
                if acc is None:
                    acc = dict(terms) if k == 1 else {e: k * c for e, c in terms.items()}
                    continue
                get = acc.get
                for e, c in terms.items():
                    acc[e] = get(e, 0) + k * c
            for y, k in down[w][i]:
                terms = values.get(y)
                if terms is None:
                    continue
                if acc is None:
                    acc = {e: -k * c for e, c in terms.items()}
                    continue
                get = acc.get
                for e, c in terms.items():
                    acc[e] = get(e, 0) - k * c
            if acc is None:
                continue
            if 0 in acc.values():
                acc = {e: c for e, c in acc.items() if c}
                if not acc:
                    continue
            values[w] = _checked_quotient(
                acc, divisor, degree - length[w], rank, elements[x], elements[v], elements[w]
            )
        column[x] = values
    return [
        StructureTable(
            "x", elements[u], elements[v],
            {w: RootPolynomial(rank, terms, _clean=True) for w, terms in column[u].items()},
            rng,
        )
        for u in us
    ]


class IdentityCheck:
    """Whether the product identity holds, and else the first fixed point
    where it fails."""

    __slots__ = ("ok", "failing")

    def __init__(self, ok: bool, failing: WeylElement | None = None):
        self.ok = ok
        self.failing = failing

    def __bool__(self) -> bool:
        return self.ok


def verify_product_identity(table: RestrictionTable, s: StructureTable) -> IdentityCheck:
    """Re-check the defining evaluation identity at every enumerated fixed point.

    For an x-basis table this is the identity that defines the constants,
    checked independently of the recurrence that computed them, at fixed
    points up to length(u)+length(v) and beyond.  A y-basis table
    satisfies the same identity with every restriction transported by the
    longest element, so the check is run against the transported values.
    The ids of ``s.values`` are read as ids of ``table``'s range, which
    holds ``s.order`` as a prefix when its root system is ``s``'s.  As in
    ``structure_constants``, u and v of another system are a RankMismatch
    and a range too short for the pair is InsufficientBound, so the
    identity is never read as zero beyond the range.  A table missing a
    row this reads at some point (an id of ``s`` beyond the range
    included), or holding only some points, is an InternalInconsistency.
    """
    transform = longest_element(s.rs).matrix if s.basis == "y" else None
    rng, columns = table.range, table.columns
    short, long = _pair_ids(rng, s.u, s.v)
    if len(table.rows_at) < len(rng):
        raise InternalInconsistency("the identity reads every point, and the table holds some")
    zero = RootPolynomial.zero(rng.rs.rank)
    for z, element in enumerate(rng.elements):
        for a in (short, long, *s.values):
            _check_point(table, z, a)
        column = columns[z]
        lhs = column.get(short, zero) * column.get(long, zero)
        if transform is not None:
            lhs = lhs.apply_linear(transform)
        rhs = zero
        for w, poly in s.values.items():
            xi = column.get(w)
            if xi is None:
                continue
            if transform is not None:
                xi = xi.apply_linear(transform)
            rhs = rhs + poly * xi
        if lhs != rhs:
            return IdentityCheck(False, element)
    return IdentityCheck(True)


def opposite_constants(s: StructureTable, w0: WeylElement) -> StructureTable:
    """Opposite-basis constants for the same index pair.

    Substitutes each simple root with its image under the longest
    element.  With the opposite classes indexed complementarily (the
    class stored at w is the one the longest element pairs with w), the
    resulting table satisfies the same support, degree, symmetry and
    unit laws as the x-basis table it came from; only the expected
    coefficient signs differ.
    """
    if s.rs.kind != FINITE:
        raise NotFiniteType("opposite basis requires a finite-type root system")
    if s.basis != "x":
        raise ValueError("opposite_constants expects an x-basis table")
    matrix = w0.matrix
    values = {w: poly.apply_linear(matrix) for w, poly in s.values.items()}
    return StructureTable("y", s.u, s.v, values, s.range)


class CertificateEntry:
    """The value at the id ``w``: its terms as packed (key, coefficient)
    pairs of rank ``rank``, in descending graded-lex order, and its verdict."""

    __slots__ = ("w", "terms", "ok", "rank")

    def __init__(self, w: int, terms: list[tuple[int, int]], ok: bool, rank: int):
        self.w = w
        self.terms = terms
        self.ok = ok
        self.rank = rank

    @property
    def monomials(self) -> list[tuple[tuple[int, ...], int]]:
        """The terms as (exponent tuple, coefficient), as ``sorted_terms`` lists them."""
        return unpack_terms(self.rank, self.terms)


class PositivityCertificate:
    """The entry of each nonzero value of a table in ``basis`` and the ids
    whose values fail its sign rule."""

    __slots__ = ("basis", "entries", "failures")

    def __init__(self, basis: str, entries: list[CertificateEntry], failures: list[int]):
        self.basis = basis
        self.entries = entries
        self.failures = failures

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def __bool__(self) -> bool:
        return not self.failures


SIGN_RULES = {"x": "nonneg", "y": "alternating"}


def terms_sign_ok(basis: str, terms, degree) -> bool:
    """Whether the (monomial, coefficient) pairs ``terms`` meet the sign
    rule of ``basis`` (any other basis is a KeyError), which reads a
    monomial's degree with ``degree`` only if it needs one.

    "nonneg" (x basis): every coefficient >= 0.  "alternating" (y basis):
    every coefficient times (-1)^degree >= 0, i.e. the value is a
    nonnegative combination of monomials in the negated simple roots.
    """
    if SIGN_RULES[basis] == "nonneg":
        return all(c >= 0 for _, c in terms)
    return all((-c if degree(m) % 2 else c) >= 0 for m, c in terms)


def positivity_certificate(s: StructureTable) -> PositivityCertificate:
    """Every stored value's packed terms, sorted, plus its verdict by the
    sign rule of ``s.basis``, which reads a degree off a key's top field;
    the entries and failures are named by id."""
    rank = s.rs.rank
    shift = FIELD_BITS * rank
    entries = []
    failures = []
    for w, poly in s.values.items():
        terms = sorted(poly.terms.items(), reverse=True)
        ok = terms_sign_ok(s.basis, terms, lambda key: key >> shift)
        entries.append(CertificateEntry(w, terms, ok, rank))
        if not ok:
            failures.append(w)
    return PositivityCertificate(s.basis, entries, failures)


@lru_cache(maxsize=None)
def _json(value: tuple[int, ...] | str) -> str:
    """JSON text of a word, an exponent or a descriptor, memoised across records."""
    import json  # here, so that importing eqschub does not load json

    return json.dumps(list(value) if isinstance(value, tuple) else value)


class _TermStarts(dict):
    """The text ``{"exp": [..], "coeff": "`` that starts a term in a
    record, by packed key of one rank, made on the first read of a key;
    like ``_json``, it grows with the distinct monomials rendered."""

    def __init__(self, rank: int):
        super().__init__()
        self.rank = rank

    def __missing__(self, key: int) -> str:
        ((exp, _),) = unpack_terms(self.rank, ((key, 0),))
        text = self[key] = f'{{"exp": {_json(exp)}, "coeff": "'
        return text


@lru_cache(maxsize=None)
def _term_starts(rank: int) -> _TermStarts:
    return _TermStarts(rank)


#: The text of an element w of a table's order at an id without a value,
#: by kind: the JSON of its word, its items in the "values" and "monomials"
#: lists of a record, and its line in ``text_lines``.
_ZERO_ITEMS = {
    "word": lambda w: _json(w.word),
    "values": lambda w: f'{{"w": {_json(w.word)}, "poly": {{"terms": []}}}}',
    "monomials": lambda w: f'{{"w": {_json(w.word)}, "terms": [], "verdict": "pass"}}',
    "text": lambda w: f"w={word_text(w.word)}: 0",
}


def _zero_items(s: StructureTable, kind: str) -> list[str]:
    """A new list of the ``_ZERO_ITEMS`` text of ``kind`` for each w of
    ``s.order``, in id order.  The text is kept per id on ``s.range``
    (memo "zero items"), of which ``s.order`` is a prefix."""
    order = s.order
    items = s.range.memo("zero items").setdefault(kind, [])
    if len(items) < len(order):
        items.extend(map(_ZERO_ITEMS[kind], order[len(items):]))
    return items[:len(order)]


def record_text(s: StructureTable, cert: PositivityCertificate) -> tuple[str, str]:
    """The cache records of the pairs (u, v) and (v, u), as the text
    ``json.dumps`` gives their dict form {"type", "basis", "u", "v",
    "values": [{"w", "poly": {"terms"}}], "certificate": {"verdict",
    "basis", "sign_rule", "monomials": [{"w", "terms", "verdict"}]}}, one
    item per w of ``s.order``, with empty terms and a passing verdict
    where the certificate has no entry.  The items start as a copy of the
    zero items (``_zero_items``) and only the ids with an entry are
    rewritten; each entry's terms are rendered from their packed keys
    (``_TermStarts``), once for both of its lists, and the two records
    share all but "u" and "v"."""
    starts = _term_starts(s.rs.rank)
    words = _zero_items(s, "word")
    values = _zero_items(s, "values")
    monomials = _zero_items(s, "monomials")
    for e in cert.entries:
        terms = "[" + ", ".join([f'{starts[key]}{coeff}"}}' for key, coeff in e.terms]) + "]"
        w = words[e.w]
        values[e.w] = f'{{"w": {w}, "poly": {{"terms": {terms}}}}}'
        monomials[e.w] = (
            f'{{"w": {w}, "terms": {terms}, "verdict": "{"pass" if e.ok else "fail"}"}}'
        )
    body = (
        f'"values": [{", ".join(values)}], "certificate": {{"verdict": "{cert.verdict}", '
        f'"basis": "{cert.basis}", "sign_rule": "{SIGN_RULES[cert.basis]}", '
        f'"monomials": [{", ".join(monomials)}]}}}}'
    )
    head = f'{{"type": {_json(s.rs.descriptor)}, "basis": "{s.basis}", '
    u, v = _json(s.u.word), _json(s.v.word)
    return f'{head}"u": {u}, "v": {v}, {body}', f'{head}"u": {v}, "v": {u}, {body}'


def text_lines(s: StructureTable) -> list[str]:
    """The line ``w=<word>: <value>`` of each w of ``s.order``, in id
    order, as ``mult --format text`` prints them: the zero lines are
    copied from ``_zero_items`` and only the ids with a value rendered."""
    lines = _zero_items(s, "text")
    for w, poly in s.values.items():
        lines[w] = f"w={word_text(s.order[w].word)}: {poly.to_text()}"
    return lines


def billey_evaluate(s: StructureTable, nu) -> list[Fraction]:
    """The value of each w of ``s.order``, in that order, at alpha_i := nu_i,
    all coordinates positive; zero at each w without a stored value.

    On the positive cone the x-basis values are guaranteed nonnegative.
    """
    from fractions import Fraction

    point = tuple(Fraction(x) for x in nu)
    if len(point) != s.rs.rank:
        raise RankMismatch("evaluation point has wrong rank")
    if any(x <= 0 for x in point):
        raise DomainViolation("every coordinate of nu must be positive")
    zero = RootPolynomial.zero(s.rs.rank)
    return evaluate_many(s.rs.rank, [s.values.get(w, zero) for w in range(len(s.order))], point)
