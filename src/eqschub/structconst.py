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
The letter i is the smallest with a nonzero left factor; one exists for
every u < w, since xi^{s_i}(w) = omega_i - w(omega_i) and only the
identity fixes every fundamental weight.  The entries of u read only
those of the x covering u at the same w, so the constants of (u, v) need
only the x >= u and the w with l(w) <= l(u) + l(v), which a truncated
(Kac-Moody) range must hold: ``column_constants`` computes many u over the
union of their sets.  As c_uv = c_vu, ``structure_constants`` walks the
x above the longer element of its pair and reads the row of the shorter
one (the given v on a tie), so it walks the fewest x.  It reads the
table only at those x and the w above them: a table over the Bruhat
lower ideal of the shorter element, with the rows of e and the s_i, at
the fixed points above the longer one up to length l(u) + l(v), serves
it (see ``localize``), and ``mult`` builds just that.  A column that
would read a row or a point its table does not hold raises
InternalInconsistency instead of reading zero.

The Bruhat order comes from the range, and every value from the
restriction table: the rows xi^{s_i} and xi^v, so no fundamental weight
is needed.  For y covered by w = y s_beta, the Chevalley integer is
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
simple roots (coefficient sign (-1)^degree in the plain monomials),
which is the sign dichotomy the certificates check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import sub

from .errors import (
    DomainViolation,
    InsufficientBound,
    InternalInconsistency,
    NotDivisible,
    NotFiniteType,
    RankMismatch,
)
from .localize import RestrictionTable
from .rootsys import FIELD_BITS, FINITE, LinearForm, RootPolynomial, evaluate_many
from .weyl import WeylElement, _check_same_system


class StructureTable:
    """The constants of one index pair (u, v), with a basis tag.

    ``order`` is the range prefix up to length l(u) + l(v), so ``order[k]``
    is the element of id k; ``values`` maps the id of each w with a
    nonzero constant to it, in increasing id, and holds no zero.
    """

    def __init__(self, table: RestrictionTable, basis: str, u: WeylElement, v: WeylElement,
                 values: dict, order):
        self.source = table
        self.rs = table.rs
        self.basis = basis
        self.u = u
        self.v = v
        self.values = values
        self.order = order


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
    _check_same_system(table.rs, u, v)
    _check_bound(table.range, u.length + v.length)
    index = table.range.index
    short, long = (u, v) if u.length < v.length else (v, u)
    s = column_constants(ChevalleyContext(table), index[short], [index[long]])[0]
    s.u, s.v = u, v
    return s


def _check_bound(rng, top: int):
    if not rng.complete and rng.bound < top:
        raise InsufficientBound(f"table bound {rng.bound} < length(u)+length(v) = {top}")


class ChevalleyContext:
    """What the Chevalley recurrence reads of one range.

    Elements are named by their ids in the range (see ``WeylRange``).
    Everything is kept at the fixed points the table holds (its
    ``points``) and nowhere else: a column walks the x >= some u and reads
    them at w >= x, so a table holding the points above u up to the
    column's length serves it.  ``above[x]`` lists the held w >= x in
    increasing id and ``below[w]`` the held y that w covers, both from the
    range's Bruhat order.  ``xi[w][i]`` holds the coordinates of
    xi^{s_i}(w), the value of ``table.columns[w]`` at the id of s_i, for
    each held w; a table without the rows of the s_i is an
    InternalInconsistency.  The first ``read(x)``, when a column first
    reads x, builds:

    * ``steps[x]`` lists (w, i, divisor) for each w > x in increasing
      length, with i the recurrence's letter at (x, w) and the divisor
      xi^{s_i}(w) - xi^{s_i}(x) prepared as a ``LinearForm``;
    * ``covers_up[x][i]`` lists (w, c_{s_i,x}^w) for the w covering x, and
      ``covers_down[x][i]`` lists (y, c_{s_i,y}^x) for the y that x covers,
      each without the zero integers.
    """

    def __init__(self, table: RestrictionTable):
        self.table = table
        self.elements = table.range.elements
        n = len(self.elements)
        self.length = length = [w.length for w in self.elements]
        self.above = above = [[] for _ in range(n)]
        self.below = below = [[] for _ in range(n)]
        leq, points = table.range.leq, table.points
        for w in range(n) if points is None else sorted(points):
            for y in leq[w] if points is None else leq[w] & points:
                above[y].append(w)
                if length[y] + 1 == length[w]:
                    below[w].append(y)
        # xi[w][i] from the rows of the length-1 elements s_i; a range
        # without them has no letters to read.
        simple = [s for s, e in enumerate(self.elements) if e.length == 1]
        for s in simple:
            _check_row(table, s)
        zero = (0,) * table.rs.rank
        self.xi = xi = [(zero,) * len(simple)] * n
        for w, column in table.columns.items():
            xi[w] = tuple(
                _linear_coords(column[s], self.elements[s], self.elements[w])
                if s in column else zero
                for s in simple
            )
        self.steps = [None] * n
        self.covers_up = [None] * n
        self.covers_down = [None] * n
        self._divisors: dict = {}

    def read(self, x: int):
        """``steps[x]`` and ``covers_up[x]``, with ``covers_down[x]``, built
        on the first call for x."""
        if self.steps[x] is None:
            _check_point(self.table, x)
            length, xi, divisors = self.length, self.xi, self._divisors
            at_x = xi[x]
            steps = []
            up = [[] for _ in at_x]
            for w in self.above[x]:
                if w == x:
                    continue
                at_w = xi[w]
                if length[w] == length[x] + 1:
                    self._cover(up, w, x, w)
                i = 0
                while at_w[i] == at_x[i]:
                    i += 1
                    if i == len(at_x):
                        raise InternalInconsistency(
                            f"no letter separates {self.elements[x]} < {self.elements[w]}"
                        )
                key = (at_w[i], at_x[i])
                divisor = divisors.get(key)
                if divisor is None:
                    diff = tuple(map(sub, *key))
                    divisor = divisors[key] = LinearForm.from_linear(len(diff), diff)
                steps.append((w, i, divisor))
            down = [[] for _ in at_x]
            for y in sorted(self.below[x]):
                self._cover(down, y, y, x)
            self.steps[x], self.covers_up[x], self.covers_down[x] = steps, up, down
        return self.steps[x], self.covers_up[x]

    def _cover(self, lists, other: int, y: int, w: int):
        """Append (other, c_{s_i,y}^w) to ``lists[i]`` for each i with a
        nonzero integer, for w covering y."""
        for i, (p, q) in enumerate(zip(self.xi[w], self.xi[y])):
            if p == q:
                continue
            coeffs = tuple(map(sub, p, q))
            if min(coeffs) < 0:
                raise InternalInconsistency(
                    f"xi^s{i + 1} at {self.elements[w]} minus at "
                    f"{self.elements[y]} has a negative coefficient"
                )
            k = gcd(*coeffs)
            if k:
                lists[i].append((other, k))


def _check_row(table: RestrictionTable, a) -> None:
    """An InternalInconsistency unless ``table`` holds the row of the id ``a``."""
    if not table.holds(a):
        raise InternalInconsistency(f"the restriction table does not hold row {a}")


def _check_point(table: RestrictionTable, b) -> None:
    """An InternalInconsistency unless ``table`` holds the point of the id ``b``."""
    if not table.holds_point(b):
        raise InternalInconsistency(f"the restriction table does not hold point {b}")


def _linear_coords(poly: RootPolynomial, a, b) -> tuple[int, ...]:
    """Coefficients on a1, .., a_rank of xi^a(b), which must be a linear
    form; anything else is an InternalInconsistency."""
    rank = poly.rank
    shift = FIELD_BITS * rank
    coords = [0] * rank
    for key, coeff in poly.terms.items():
        # A degree-1 key is its degree bit and the bit of a_i's field.
        if key >> shift != 1:
            raise InternalInconsistency(f"value({a}, {b}) is not a linear form")
        coords[rank - 1 - (key ^ 1 << shift).bit_length() // FIELD_BITS] = coeff
    return tuple(coords)


def _checked_quotient(dividend: RootPolynomial, divisor, degree: int, u, v, w) -> RootPolynomial:
    """``dividend`` divided exactly by the linear form ``divisor``, or
    ``dividend`` itself if the divisor is None; an inexact division or a
    value not homogeneous of ``degree`` is an InternalInconsistency at
    (u, v, w)."""
    if divisor is not None:
        try:
            dividend = dividend.exact_divide_linear(divisor)
        except NotDivisible as exc:
            raise InternalInconsistency(
                f"inexact division at (u={u.word_text()}, v={v.word_text()}, w={w.word_text()})"
            ) from exc
    if not dividend.is_homogeneous_of(degree):
        raise InternalInconsistency(
            f"value at (u={u.word_text()}, v={v.word_text()}, w={w.word_text()}) "
            f"is not homogeneous of degree {degree}"
        )
    return dividend


def column_constants(context: ChevalleyContext, v: int, us) -> list[StructureTable]:
    """The x-basis constants of the pairs (u, v), for the id v and each id
    u of ``us``, by the Chevalley recurrence (see the module docstring).

    Computes the column of v at every x above some u, longest first, up
    to length max(l(u)) + l(v); each table holds the nonzero constants of
    one pair at the w up to length l(u) + l(v).
    """
    length, elements = context.length, context.elements
    lv = length[v]
    top = max(length[u] for u in us) + lv
    table = context.table
    _check_bound(table.range, top)
    _check_row(table, v)
    if table.points is not None:
        # The column reads every x >= some u up to length top.
        leq = table.range.leq
        for b in range(bisect_right(length, top)):
            if any(u in leq[b] for u in us):
                _check_point(table, b)
    above = context.above
    rank = table.rs.rank
    columns = table.columns
    covers_down = context.covers_down
    column: dict = {}
    # Every w > x read below is some u's upper element, longer than x, so
    # its ``read`` ran before x's.
    for x in sorted({x for u in us for x in above[u] if length[x] <= top}, reverse=True):
        steps, covers_up = context.read(x)
        degree = length[x] + lv
        last = min(degree, top)
        values = {}
        base = columns[x].get(v)
        if base is not None:
            values[x] = _checked_quotient(base, None, lv, elements[x], elements[v], elements[x])
        for w, i, divisor in steps:
            if length[w] > last:
                break
            if v not in columns[w]:
                continue
            acc: dict = {}
            get = acc.get
            for x1, k in covers_up[i]:
                poly = column[x1].get(w)
                if poly is not None:
                    for e, c in poly.terms.items():
                        acc[e] = get(e, 0) + k * c
            for y, k in covers_down[w][i]:
                poly = values.get(y)
                if poly is not None:
                    for e, c in poly.terms.items():
                        acc[e] = get(e, 0) - k * c
            if 0 in acc.values():
                acc = {e: c for e, c in acc.items() if c}
            if not acc:
                continue
            values[w] = _checked_quotient(
                RootPolynomial(rank, acc, _clean=True), divisor, degree - length[w],
                elements[x], elements[v], elements[w],
            )
        column[x] = values
    return [
        StructureTable(
            table, "x", elements[u], elements[v], column[u],
            elements[:bisect_right(length, length[u] + lv)],
        )
        for u in us
    ]


@dataclass
class IdentityCheck:
    ok: bool
    failing: WeylElement | None = None

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
    holds ``s.order`` as a prefix when its root system is ``s``'s.  A
    table missing a row this reads, or holding only some points, is an
    InternalInconsistency.
    """
    transform = None
    if s.basis == "y":
        from .weyl import longest_element

        transform = longest_element(s.rs).matrix
    index, columns = table.range.index, table.columns
    u, v = index.get(s.u), index.get(s.v)
    for a in (u, v, *s.values):
        _check_row(table, a)
    if table.points is not None:
        raise InternalInconsistency("the identity reads every point, and the table holds some")
    zero = RootPolynomial.zero(table.rs.rank)
    for z, element in enumerate(table.range.elements):
        column = columns[z]
        lhs = column.get(u, zero) * column.get(v, zero)
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
    return StructureTable(s.source, "y", s.u, s.v, values, s.order)


@dataclass
class CertificateEntry:
    w: int
    monomials: list[tuple[tuple[int, ...], int]]
    ok: bool


@dataclass
class PositivityCertificate:
    basis: str
    entries: list[CertificateEntry]
    failures: list[int]

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def __bool__(self) -> bool:
        return not self.failures


def value_sign_ok(poly: RootPolynomial, basis: str) -> bool:
    """Sign test per basis tag.

    x-basis: every monomial coefficient nonnegative.  y-basis: every
    coefficient nonnegative after negating the variables, i.e. the value
    is a nonnegative combination of monomials in the negated simple
    roots (plain coefficients carry sign (-1)^degree).
    """
    if basis == "x":
        return poly.sign_pattern() in ("nonneg", "zero")
    return poly.negate_variables().sign_pattern() in ("nonneg", "zero")


def positivity_certificate(s: StructureTable) -> PositivityCertificate:
    """Full monomial expansion of every stored value plus a per-value
    verdict, with entries and failures named by id."""
    entries = []
    failures = []
    for w, poly in s.values.items():
        ok = value_sign_ok(poly, s.basis)
        entries.append(CertificateEntry(w, poly.sorted_terms(), ok))
        if not ok:
            failures.append(w)
    return PositivityCertificate(s.basis, entries, failures)


@lru_cache(maxsize=None)
def _json(value: tuple[int, ...] | str) -> str:
    """JSON text of a word, an exponent or a descriptor, memoised across records."""
    import json  # here, so that importing eqschub does not load json

    return json.dumps(list(value) if isinstance(value, tuple) else value)


def record_text(s: StructureTable, cert: PositivityCertificate) -> tuple[str, str]:
    """The cache records of the pairs (u, v) and (v, u), as the text
    ``json.dumps`` gives their dict form {"type", "basis", "u", "v",
    "values": [{"w", "poly": {"terms"}}], "certificate": {"verdict",
    "basis", "sign_rule", "monomials": [{"w", "terms", "verdict"}]}}, one
    item per w of ``s.order``, with empty terms and a passing verdict
    where the certificate has no entry.  Each value's terms are rendered
    once for both of its lists, and the two records share all but "u" and
    "v"."""
    rendered = {}
    for e in cert.entries:
        terms = "[" + ", ".join([
            f'{{"exp": {_json(exp)}, "coeff": "{coeff}"}}' for exp, coeff in e.monomials
        ]) + "]" if e.monomials else "[]"
        rendered[e.w] = terms, "pass" if e.ok else "fail"
    values = []
    monomials = []
    for k, element in enumerate(s.order):
        w = _json(element.word)
        terms, verdict = rendered.get(k, ("[]", "pass"))
        values.append(f'{{"w": {w}, "poly": {{"terms": {terms}}}}}')
        monomials.append(f'{{"w": {w}, "terms": {terms}, "verdict": "{verdict}"}}')
    sign_rule = "nonneg" if cert.basis == "x" else "alternating"
    body = (
        f'"values": [{", ".join(values)}], "certificate": {{"verdict": "{cert.verdict}", '
        f'"basis": "{cert.basis}", "sign_rule": "{sign_rule}", '
        f'"monomials": [{", ".join(monomials)}]}}}}'
    )
    head = f'{{"type": {_json(s.rs.descriptor)}, "basis": "{s.basis}", '
    u, v = _json(s.u.word), _json(s.v.word)
    return f'{head}"u": {u}, "v": {v}, {body}', f'{head}"u": {v}, "v": {u}, {body}'


def billey_evaluate(s: StructureTable, nu) -> list[Fraction]:
    """The value of each w of ``s.order``, in that order, at alpha_i := nu_i,
    all coordinates positive; zero at each w without a stored value.

    On the positive cone the x-basis values are guaranteed nonnegative.
    """
    point = tuple(Fraction(x) for x in nu)
    if len(point) != s.rs.rank:
        raise RankMismatch("evaluation point has wrong rank")
    if any(x <= 0 for x in point):
        raise DomainViolation("every coordinate of nu must be positive")
    zero = RootPolynomial.zero(s.rs.rank)
    return evaluate_many(s.rs.rank, [s.values.get(w, zero) for w in range(len(s.order))], point)
