"""Structure constants by Bruhat-triangular elimination from restrictions.

For a pair (u, v) the solver walks the fixed points w in length-then-lex
order (a linear extension of Bruhat order) and peels off

    value(w) = [ xi_u(w) xi_v(w) - sum_{w' solved} value(w') xi_{w'}(w) ]
               / xi_w(w)

dividing the diagonal's inversion factors out one linear form at a time.
Fixed points excluded by the support condition (u <= w and v <= w) are
skipped with the numerator asserted to vanish; any exactness failure
aborts the computation, since the triangular system has a unique
solution.

The x-basis values are the constants of the Schubert-class basis dual to
the cell closures.  The y-basis table for the same index pair is obtained
by substituting each simple root with its image under the longest
element; its entries expand with nonnegative coefficients in the negated
simple roots (coefficient sign (-1)^degree in the plain monomials),
which is the sign dichotomy the certificates check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DomainViolation,
    InsufficientBound,
    InternalInconsistency,
    NotDivisible,
    NotFiniteType,
    RankMismatch,
)
from .localize import RestrictionTable
from .rootsys import FINITE, RootPolynomial, terms_json
from .weyl import WeylElement, inverse


class StructureTable:
    """Constants w -> polynomial for one index pair, with a basis tag."""

    def __init__(self, table: RestrictionTable, basis: str, u: WeylElement, v: WeylElement, values: dict):
        self.source = table
        self.rs = table.rs
        self.basis = basis
        self.u = u
        self.v = v
        self.values = values
        self.order = tuple(w for w in table.range.elements if w in values)

    def nonzero_items(self) -> list[tuple[WeylElement, RootPolynomial]]:
        return [(w, self.values[w]) for w in self.order if not self.values[w].is_zero()]

    def to_json_dict(self, certificate: PositivityCertificate | None = None) -> dict:
        """Cache record of the pair; builds the certificate unless one is given.

        Each value's terms come from its certificate entry, which holds them
        sorted already.
        """
        if certificate is None:
            certificate = positivity_certificate(self)
        return {
            "type": self.rs.descriptor,
            "basis": self.basis,
            "u": list(self.u.word),
            "v": list(self.v.word),
            "values": [
                {"w": list(e.w.word), "poly": {"terms": terms_json(e.monomials)}}
                for e in certificate.entries
            ],
            "certificate": certificate.to_json_dict(),
        }


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
            quotient = numerator
            try:
                for lin in forms[w]:
                    quotient = quotient.exact_divide_linear(lin)
            except NotDivisible as exc:
                raise InternalInconsistency(
                    f"inexact diagonal division at (u={u.word_text()}, "
                    f"v={v.word_text()}, w={w.word_text()})"
                ) from exc
            if not quotient.is_homogeneous_of(total - w.length):
                raise InternalInconsistency(
                    f"value at (u={u.word_text()}, v={v.word_text()}, "
                    f"w={w.word_text()}) is not homogeneous of degree {total - w.length}"
                )
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
    return StructureTable(s.source, "y", s.u, s.v, values)


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

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "basis": self.basis,
            "sign_rule": "nonneg" if self.basis == "x" else "alternating",
            "monomials": [
                {
                    "w": list(e.w.word),
                    "terms": terms_json(e.monomials),
                    "verdict": "pass" if e.ok else "fail",
                }
                for e in self.entries
            ],
        }


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
    """Full monomial expansion of every value plus a per-value verdict."""
    entries = []
    failures = []
    for w in s.order:
        poly = s.values[w]
        ok = value_sign_ok(poly, s.basis)
        entries.append(CertificateEntry(w, poly.sorted_terms(), ok))
        if not ok:
            failures.append(w)
    return PositivityCertificate(s.basis, entries, failures)


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
    out = {}
    for w in s.order:
        key = inverse(w) if p_convention else w
        out[key] = s.values[w].evaluate(point)
    return out
