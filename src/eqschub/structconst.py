"""Structure constants from restrictions, by two routes.

The x-basis constants c_uv^w of a pair (u, v) are defined by
xi^u xi^v = sum_w c_uv^w xi^w, where xi^u(w) is the restriction table's
value at (u, w).  They vanish unless u <= w and v <= w, are homogeneous of
degree l(u) + l(v) - l(w), and are symmetric in u and v.

Triangular solve (``structure_constants``, one pair).  The solver walks
the fixed points w in length-then-lex order (a linear extension of Bruhat
order) and peels off

    value(w) = [ xi_u(w) xi_v(w) - sum_{w' solved} value(w') xi_{w'}(w) ]
               / xi_w(w)

dividing the diagonal's inversion factors out one linear form at a time.
Fixed points excluded by the support condition (u <= w and v <= w) are
skipped with the numerator asserted to vanish; any exactness failure
aborts the computation, since the triangular system has a unique
solution.  ``mult`` uses it, and the tests use it as the oracle of the
recurrence.

Chevalley recurrence (``column_constants``, one v and many u).  The
Chevalley formula (Kostant-Kumar, Adv. Math. 62, 1986) multiplies by a
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
identity fixes every fundamental weight.  On a truncated (Kac-Moody)
range only w with l(w) <= min(l(u) + l(v), bound) are computed: the
columns of longer u need those entries too.

Everything is read from the restriction table, so no fundamental weight
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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    DomainViolation,
    InsufficientBound,
    InternalInconsistency,
    NotDivisible,
    NotFiniteType,
    RankMismatch,
)
from .localize import RestrictionTable
from .rootsys import FINITE, LinearForm, RootPolynomial, evaluate_many
from .weyl import WeylElement, inverse


class StructureTable:
    """Constants w -> polynomial for one index pair, with a basis tag."""

    def __init__(self, table: RestrictionTable, basis: str, u: WeylElement, v: WeylElement,
                 values: dict, order=None):
        self.source = table
        self.rs = table.rs
        self.basis = basis
        self.u = u
        self.v = v
        self.values = values
        # The keys of ``values`` in range order; a scan finds them unless given.
        self.order = order or tuple(w for w in table.range.elements if w in values)

    def nonzero_items(self) -> list[tuple[WeylElement, RootPolynomial]]:
        return [(w, self.values[w]) for w in self.order if not self.values[w].is_zero()]


def structure_constants(table: RestrictionTable, u: WeylElement, v: WeylElement) -> StructureTable:
    """Solve for the x-basis constants of the pair (u, v).

    Requires the KK convention and a table bound of at least
    length(u) + length(v), unless the range already exhausts the whole
    group (finite type), in which case any bound works because no fixed
    points beyond the enumerated ones exist.
    """
    if table.convention != "KK":
        raise ValueError("solver requires a KK-convention table")
    if (
        u.rs.cartan.entries != table.rs.cartan.entries
        or v.rs.cartan.entries != table.rs.cartan.entries
    ):
        raise RankMismatch("elements do not belong to the table's root system")
    rng = table.range
    total = u.length + v.length
    if not rng.complete and rng.bound < total:
        raise InsufficientBound(
            f"table bound {rng.bound} < length(u)+length(v) = {total}"
        )
    leq = rng.leq
    forms = rng.inversion_forms
    restriction = table.values.get
    zero = RootPolynomial.zero(table.rs.rank)
    values: dict = {}
    solved: list[tuple[WeylElement, RootPolynomial]] = []
    for w in rng.elements:
        if w.length > total:
            break
        numerator = table.value(u, w) * table.value(v, w)
        for wp, poly in solved:
            xi = restriction((wp, w))
            if xi is not None:
                numerator = numerator - poly * xi
        if u in leq[w] and v in leq[w]:
            quotient = _checked_quotient(numerator, forms[w], total - w.length, u, v, w)
            values[w] = quotient
            if not quotient.is_zero():
                solved.append((w, quotient))
        else:
            if not numerator.is_zero():
                raise InternalInconsistency(
                    f"nonzero numerator at skipped fixed point (u={u.word_text()}, "
                    f"v={v.word_text()}, w={w.word_text()})"
                )
            values[w] = zero
    return StructureTable(table, "x", u, v, values)


class ChevalleyContext:
    """What the Chevalley recurrence reads of one range, built once.

    An element's id is its position in the range, so ids run in length
    order.  For each id:

    * ``restriction[a]`` maps b to xi^a(b) for the b >= a (the table's
      nonzero entries);
    * ``steps[u]`` lists (w, i, divisor) for each w > u in increasing
      length, with i the recurrence's letter at (u, w) and the divisor
      xi^{s_i}(w) - xi^{s_i}(u) prepared as a ``LinearForm``;
    * ``covers_up[u][i]`` lists (x, c_{s_i,u}^x) for the x covering u, and
      ``covers_down[w][i]`` lists (y, c_{s_i,y}^w) for the y that w covers,
      each without the zero integers.
    """

    def __init__(self, table: RestrictionTable):
        if table.convention != "KK":
            raise ValueError("recurrence requires a KK-convention table")
        rng = table.range
        self.table = table
        self.elements = rng.elements
        n = len(self.elements)
        rank = table.rs.rank
        self.index = index = {w: k for k, w in enumerate(self.elements)}
        self.length = length = [w.length for w in self.elements]
        restriction: list[dict] = [{} for _ in range(n)]
        for (a, b), poly in table.values.items():
            restriction[index[a]][index[b]] = poly
        self.restriction = restriction
        # xi[i][w] = the coordinates of xi^{s_i}(w); a range without
        # elements of length 1 needs none.
        xi = []
        for s, e in enumerate(self.elements):
            if e.length == 1:
                row = [(0,) * rank] * n
                for w, poly in restriction[s].items():
                    row[w] = _linear_coords(poly)
                xi.append(row)
        self.covers_up = [[[] for _ in xi] for _ in range(n)]
        self.covers_down = [[[] for _ in xi] for _ in range(n)]
        self.steps = []
        forms: dict = {}
        for u in range(n):
            steps = []
            for w in sorted(restriction[u]):
                if w == u:
                    continue
                if length[w] == length[u] + 1:
                    self._add_cover(xi, u, w)
                i = next((i for i, row in enumerate(xi) if row[w] != row[u]), None)
                if i is None:
                    raise InternalInconsistency(
                        f"no letter separates {self.elements[u]} < {self.elements[w]}"
                    )
                diff = tuple(a - b for a, b in zip(xi[i][w], xi[i][u]))
                divisor = forms.get(diff)
                if divisor is None:
                    divisor = forms[diff] = LinearForm.from_linear(rank, diff)
                steps.append((w, i, divisor))
            self.steps.append(steps)

    def _add_cover(self, xi, y: int, w: int):
        """Record c_{s_i,y}^w for every i, for w covering y."""
        for i, row in enumerate(xi):
            coeffs = [a - b for a, b in zip(row[w], row[y])]
            if any(c < 0 for c in coeffs):
                raise InternalInconsistency(
                    f"xi^s{i + 1} at {self.elements[w]} minus at "
                    f"{self.elements[y]} has a negative coefficient"
                )
            k = gcd(*coeffs)
            if k:
                self.covers_up[y][i].append((w, k))
                self.covers_down[w][i].append((y, k))


def _linear_coords(poly: RootPolynomial) -> tuple[int, ...]:
    """Coefficients of a linear form on a1, .., a_rank."""
    coords = [0] * poly.rank
    for exp, coeff in poly.sorted_terms():
        coords[exp.index(1)] = coeff
    return tuple(coords)


def _checked_quotient(dividend: RootPolynomial, divisors, degree: int, u, v, w) -> RootPolynomial:
    """``dividend`` divided exactly by each linear form of ``divisors``; an
    inexact division or a quotient not homogeneous of ``degree`` is an
    InternalInconsistency at (u, v, w)."""
    try:
        for lin in divisors:
            dividend = dividend.exact_divide_linear(lin)
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


def column_constants(
    context: ChevalleyContext, v: WeylElement, us
) -> list[StructureTable]:
    """The x-basis constants of the pairs (u, v), for each u of ``us``, by
    the Chevalley recurrence (see the module docstring).

    Computes the column of v for every element of the range at least as
    long as the shortest u, longest first, holding that one column; each
    table holds the same values ``structure_constants`` gives the pair.
    """
    rng = context.table.range
    index, length, elements = context.index, context.length, context.elements
    vid = index[v]
    lv = length[vid]
    ids = [index[u] for u in us]
    if not rng.complete and rng.bound < max(length[u] for u in ids) + lv:
        raise InsufficientBound(
            f"table bound {rng.bound} < length(u)+length(v) for some u"
        )
    rank = context.table.rs.rank
    xi_v = context.restriction[vid]
    steps, covers_up, covers_down = context.steps, context.covers_up, context.covers_down
    column: dict = {}
    start = bisect_left(length, min(length[u] for u in ids))
    for u in range(len(elements) - 1, start - 1, -1):
        top = length[u] + lv
        values = {}
        if u in xi_v:
            values[u] = xi_v[u]
        for w, i, divisor in steps[u]:
            if length[w] > top:
                break
            if w not in xi_v:
                continue
            acc: dict = {}
            get = acc.get
            for x, k in covers_up[u][i]:
                poly = column[x].get(w)
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
                RootPolynomial(rank, acc, _clean=True), (divisor,), top - length[w],
                elements[u], v, elements[w],
            )
        column[u] = values
    zero = RootPolynomial.zero(rank)
    out = []
    for u, uid in zip(us, ids):
        values = column[uid]
        order = elements[:bisect_right(length, length[uid] + lv)]
        out.append(StructureTable(
            context.table, "x", u, v,
            {w: values.get(k, zero) for k, w in enumerate(order)}, order,
        ))
    return out


@dataclass
class IdentityCheck:
    ok: bool
    failing: WeylElement | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_product_identity(table: RestrictionTable, s: StructureTable) -> IdentityCheck:
    """Re-check the defining evaluation identity at every enumerated fixed point.

    For an x-basis table this is the identity the solver enforced at
    fixed points up to length(u)+length(v) plus a genuine check beyond
    them.  A y-basis table satisfies the same identity with every
    restriction transported by the longest element, so the check is run
    against the transported values.
    """
    transform = None
    if s.basis == "y":
        from .weyl import longest_element

        transform = longest_element(s.rs).matrix
    nonzero = s.nonzero_items()
    zero = RootPolynomial.zero(table.rs.rank)
    for z in table.range.elements:
        lhs = table.value(s.u, z) * table.value(s.v, z)
        if transform is not None:
            lhs = lhs.apply_linear(transform)
        rhs = zero
        for w, poly in nonzero:
            xi = table.values.get((w, z))
            if xi is None:
                continue
            if transform is not None:
                xi = xi.apply_linear(transform)
            rhs = rhs + poly * xi
        if lhs != rhs:
            return IdentityCheck(False, z)
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
    w: WeylElement
    monomials: list[tuple[tuple[int, ...], int]]
    ok: bool


@dataclass
class PositivityCertificate:
    basis: str
    entries: list[CertificateEntry]
    failures: list[WeylElement]

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
    """Full monomial expansion of every value plus a per-value verdict; a
    zero value gets an empty, passing entry."""
    entries = []
    failures = []
    for w in s.order:
        poly = s.values[w]
        if not poly.terms:
            entries.append(CertificateEntry(w, [], True))
            continue
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
    item per certificate entry.  Each value's terms are rendered once for
    both of its lists, and the two records share all but "u" and "v"."""
    values = []
    monomials = []
    for e in cert.entries:
        w = _json(e.w.word)
        terms = "[" + ", ".join([
            f'{{"exp": {_json(exp)}, "coeff": "{coeff}"}}' for exp, coeff in e.monomials
        ]) + "]" if e.monomials else "[]"
        values.append(f'{{"w": {w}, "poly": {{"terms": {terms}}}}}')
        monomials.append(
            f'{{"w": {w}, "terms": {terms}, "verdict": "{"pass" if e.ok else "fail"}"}}'
        )
    sign_rule = "nonneg" if cert.basis == "x" else "alternating"
    body = (
        f'"values": [{", ".join(values)}], "certificate": {{"verdict": "{cert.verdict}", '
        f'"basis": "{cert.basis}", "sign_rule": "{sign_rule}", '
        f'"monomials": [{", ".join(monomials)}]}}}}'
    )
    head = f'{{"type": {_json(s.rs.descriptor)}, "basis": "{s.basis}", '
    u, v = _json(s.u.word), _json(s.v.word)
    return f'{head}"u": {u}, "v": {v}, {body}', f'{head}"u": {v}, "v": {u}, {body}'


def billey_evaluate(
    s: StructureTable,
    nu,
    *,
    p_convention: bool = False,
) -> dict[WeylElement, Fraction]:
    """Evaluate every value at alpha_i := nu_i, all coordinates positive.

    On the positive cone the x-basis values are guaranteed nonnegative.
    With ``p_convention`` the result is relabeled by w -> w^{-1} (and the
    pair implicitly by (u, v) -> (u^{-1}, v^{-1})); applying the
    relabeling twice returns the original indexing.
    """
    point = tuple(Fraction(x) for x in nu)
    if len(point) != s.rs.rank:
        raise RankMismatch("evaluation point has wrong rank")
    if any(x <= 0 for x in point):
        raise DomainViolation("every coordinate of nu must be positive")
    values = evaluate_many(s.rs.rank, [s.values[w] for w in s.order], point)
    keys = [inverse(w) for w in s.order] if p_convention else s.order
    return dict(zip(keys, values))
