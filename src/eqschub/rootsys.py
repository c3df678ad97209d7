"""Root systems from (generalized) Cartan matrices and exact polynomial
arithmetic over the simple-root basis.

Conventions fixed here and relied on everywhere else:

* ``a[i][j] = <alpha_j, alpha_i^vee>``, so the simple reflection acts by
  ``s_i(alpha_j) = alpha_j - a[i][j] * alpha_i``.
* Roots have integer coordinates, fundamental weights exact rational
  ones, and polynomial coefficients are arbitrary-precision integers.
  There is no floating point in the core.
* Monomials are ordered graded-lexicographically (total degree first,
  then the exponent tuple), descending, for every serialization.
* A monomial a1^e1 .. an^en is stored as one packed int (after
  Monagan-Pearce, "Polynomial division using dynamic arrays, heaps, and
  packed exponent vectors", CASC 2007): the total degree in the top
  ``FIELD_BITS``-bit field, then e1, .., en in one field each.  Integer
  order of packed keys is the graded-lex order above, and the product of
  two monomials is the sum of their keys.  A degree of ``DEGREE_LIMIT``
  or more raises ValueError rather than carry into the next field.
  Exponent tuples appear only at the edges: the constructor, the
  ``sorted_terms`` and ``unpack_terms`` listings and the text and JSON
  forms.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import prod

from .errors import (
    ClosureOverflow,
    InternalInconsistency,
    InvalidCartan,
    NotDivisible,
    RankMismatch,
    SingularCartan,
)

FINITE = "finite"
GENERAL = "general"

DEFAULT_ROOT_CAP = 10_000

#: Built-in Cartan matrices, keyed by the names accepted on the command line.
BUILTIN_TYPES = {
    "A1": (((2,),), FINITE),
    "A2": (((2, -1), (-1, 2)), FINITE),
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), FINITE),
    "B2": (((2, -1), (-2, 2)), FINITE),
    "G2": (((2, -1), (-3, 2)), FINITE),
    "AffineA1": (((2, -2), (-2, 2)), GENERAL),
}


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")


class CartanMatrix:
    """Integer matrix with 2 on the diagonal and non-positive entries off it.

    A value: compared and hashed by ``entries``, and assigning a field is
    an AttributeError.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        n = len(entries)
        if n == 0:
            raise InvalidCartan("empty matrix")
        for row in entries:
            if len(row) != n:
                raise InvalidCartan("matrix is not square")
            # Floats, strings and bools are refused, never converted.
            if any(type(x) is not int for x in row):
                raise InvalidCartan(f"non-integer entry in row {list(row)}")
        for i in range(n):
            if entries[i][i] != 2:
                raise InvalidCartan(f"diagonal entry a[{i + 1}][{i + 1}] != 2")
            for j in range(n):
                if i == j:
                    continue
                if entries[i][j] > 0:
                    raise InvalidCartan(f"off-diagonal entry a[{i + 1}][{j + 1}] > 0")
                if (entries[i][j] == 0) != (entries[j][i] == 0):
                    raise InvalidCartan(
                        f"zero pattern not symmetric at ({i + 1},{j + 1})"
                    )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "CartanMatrix":
        try:
            entries = tuple(tuple(row) for row in rows)
        except TypeError as exc:
            raise InvalidCartan(f"entries are not a list of rows: {exc}") from exc
        return cls(entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if other.__class__ is not CartanMatrix:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"CartanMatrix({self.entries!r})"

    def __reduce__(self):
        return CartanMatrix, (self.entries,)

    __setattr__ = __delattr__ = _refuse_assignment


class RootSystem:
    """Cartan matrix plus derived data.

    For finite kind the positive roots (integer tuples) and fundamental
    weights (``Fraction`` tuples) are given, both in simple-root
    coordinates; for general (Kac-Moody) kind both are None.  The weights
    are computed on first read, so ``fractions`` is imported only by a
    reader of them.  A value like ``CartanMatrix``: compared by its
    matrix, kind, roots and descriptor (the weights follow from the
    matrix), and assigning a field is an AttributeError.
    """

    __slots__ = ("cartan", "kind", "positive_roots", "descriptor", "_weights")

    def __init__(self, cartan: CartanMatrix, kind: str,
                 positive_roots: tuple[tuple[int, ...], ...] | None, descriptor: str):
        set_field = object.__setattr__
        set_field(self, "cartan", cartan)
        set_field(self, "kind", kind)
        set_field(self, "positive_roots", positive_roots)
        set_field(self, "descriptor", descriptor)
        set_field(self, "_weights", None)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def fundamental_weights(self) -> tuple[tuple[Fraction, ...], ...] | None:
        if self._weights is None and self.kind == FINITE:
            n = self.rank
            inverse = _invert_matrix(self.cartan.entries)
            # Column j of the inverse Cartan matrix is omega_j in simple-root coords.
            weights = tuple(tuple(inverse[k][j] for k in range(n)) for j in range(n))
            object.__setattr__(self, "_weights", weights)
        return self._weights

    def _key(self) -> tuple:
        return self.cartan, self.kind, self.positive_roots, self.descriptor

    def __eq__(self, other) -> bool:
        if other.__class__ is not RootSystem:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        # Equal systems have equal matrices, kinds and descriptors, so this
        # hash is valid without the roots, which a memo keyed by the system
        # (``weyl.longest_element``) would hash on every look-up.
        return hash((self.cartan, self.kind, self.descriptor))

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan!r}, {self.kind!r}, descriptor={self.descriptor!r})"

    def __reduce__(self):
        return RootSystem, self._key()

    __setattr__ = __delattr__ = _refuse_assignment


def _reflect_coords(cartan: CartanMatrix, i: int, coords: tuple) -> tuple:
    # s_i changes only coordinate i: c_i -> c_i - sum_k a[i][k] c_k.
    pair = sum(a * c for a, c in zip(cartan.entries[i], coords))
    return tuple(c - pair if k == i else c for k, c in enumerate(coords))


def _invert_matrix(entries: tuple[tuple[int, ...], ...]) -> list[list[Fraction]]:
    """Exact inverse by Gaussian elimination; raises SingularCartan."""
    from fractions import Fraction

    n = len(entries)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if j == i else 0) for j in range(n)]
           for i, row in enumerate(entries)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularCartan("Cartan matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def build_root_system(
    cartan: CartanMatrix,
    kind: str = FINITE,
    *,
    root_cap: int = DEFAULT_ROOT_CAP,
    descriptor: str | None = None,
) -> RootSystem:
    """Construct a root system of the given kind.

    Finite kind computes the positive roots by reflection closure of the
    simple roots; the fundamental weights come from the inverse Cartan
    matrix when first read.  The closure aborts with ClosureOverflow once more than
    ``root_cap`` roots appear, which signals a matrix that is not finite
    type.  General kind keeps the Cartan matrix alone.
    """
    if kind not in (FINITE, GENERAL):
        raise ValueError(f"unknown kind {kind!r}")
    n = cartan.rank
    if descriptor is None:
        descriptor = descriptor_for(cartan, kind)
    if kind == GENERAL:
        return RootSystem(cartan, kind, None, descriptor)

    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for v in frontier:
            for i in range(n):
                image = _reflect_coords(cartan, i, v)
                if image not in roots:
                    roots.add(image)
                    new.append(image)
        if len(roots) > root_cap:
            raise ClosureOverflow(
                f"reflection closure exceeded {root_cap} roots; not finite type"
            )
        frontier = new

    positive = sorted(
        (v for v in roots if all(c >= 0 for c in v)),
        key=lambda v: (sum(v), tuple(-c for c in v)),
    )
    if 2 * len(positive) != len(roots):  # pragma: no cover
        raise InternalInconsistency(
            f"closure produced {len(roots)} roots with uneven sign split"
        )
    return RootSystem(cartan, kind, tuple(positive), descriptor)


def descriptor_for(cartan: CartanMatrix, kind: str) -> str:
    for name, (entries, builtin_kind) in BUILTIN_TYPES.items():
        if cartan.entries == entries and kind == builtin_kind:
            return name
    rows = ";".join(",".join(str(x) for x in row) for row in cartan.entries)
    return f"cartan[{rows}]:{kind}"


def builtin_root_system(name: str, *, root_cap: int = DEFAULT_ROOT_CAP) -> RootSystem:
    if name not in BUILTIN_TYPES:
        raise ValueError(f"unknown built-in type {name!r}")
    entries, kind = BUILTIN_TYPES[name]
    return build_root_system(CartanMatrix(entries), kind, root_cap=root_cap, descriptor=name)


# ---------------------------------------------------------------------------
# Sparse polynomials in the simple roots

#: Bits per field of a packed monomial; the fields are read back as
#: unsigned 16-bit integers, so this cannot change on its own.
FIELD_BITS = 16
#: Packed monomials hold total degrees below this bound.
DEGREE_LIMIT = 1 << FIELD_BITS
_FIELD_MASK = DEGREE_LIMIT - 1


def _pack(exp: tuple[int, ...]) -> int:
    """Packed key of a nonnegative exponent vector; see the module docstring."""
    key = sum(exp)
    if key >= DEGREE_LIMIT:
        raise ValueError(f"degree {key} of {exp} is not below {DEGREE_LIMIT}")
    for e in exp:
        key = key << FIELD_BITS | e
    return key


@lru_cache(maxsize=16)
def _unpacker(rank: int) -> struct.Struct:
    """Reads the exponent fields of a key's big-endian bytes, skipping its degree."""
    return struct.Struct(f">2x{rank}H")


def unpack_terms(rank: int, items) -> list[tuple[tuple[int, ...], int]]:
    """(exponent tuple, coefficient) of each (packed key, coefficient) of
    ``items``, in their order, for keys of rank ``rank``."""
    fields = _unpacker(rank)
    unpack, size = fields.unpack, fields.size
    return [(unpack(key.to_bytes(size, "big")), coeff) for key, coeff in items]


class RootPolynomial:
    """Sparse polynomial in a1..a_rank with integer coefficients.

    ``terms`` maps packed monomials (see the module docstring) to nonzero
    integers; the zero polynomial is the empty mapping.  The constructor
    takes a mapping keyed by exponent tuples.  Instances are treated as
    immutable.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None, *, _clean: bool = False):
        self.rank = rank
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            cleaned = {}
            for exp, coeff in dict(terms).items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != rank or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp}")
                coeff = int(coeff)
                if coeff:
                    cleaned[_pack(exp)] = coeff
            self.terms = cleaned

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "RootPolynomial":
        return cls(rank, {}, _clean=True)

    @classmethod
    def constant(cls, rank: int, value: int) -> "RootPolynomial":
        value = int(value)
        if value == 0:
            return cls.zero(rank)
        return cls(rank, {0: value}, _clean=True)

    @classmethod
    def one(cls, rank: int) -> "RootPolynomial":
        return cls.constant(rank, 1)

    @classmethod
    def variable(cls, rank: int, i: int) -> "RootPolynomial":
        """The simple root a_i, 1-based."""
        return cls.from_linear(rank, [1 if j == i - 1 else 0 for j in range(rank)])

    @classmethod
    def from_linear(cls, rank: int, coords) -> "RootPolynomial":
        degree_one = 1 << FIELD_BITS * rank
        terms = {}
        for i, c in enumerate(coords):
            c = int(c)
            if c:
                terms[degree_one | 1 << FIELD_BITS * (rank - 1 - i)] = c
        return cls(rank, terms, _clean=True)

    # -- ring operations ----------------------------------------------

    def _check_rank(self, other: "RootPolynomial"):
        if self.rank != other.rank:
            raise RankMismatch(f"polynomial ranks differ: {self.rank} vs {other.rank}")

    def __add__(self, other: "RootPolynomial") -> "RootPolynomial":
        self._check_rank(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return RootPolynomial(self.rank, out, _clean=True)

    def __neg__(self) -> "RootPolynomial":
        return RootPolynomial(
            self.rank, {e: -c for e, c in self.terms.items()}, _clean=True
        )

    def __sub__(self, other: "RootPolynomial") -> "RootPolynomial":
        self._check_rank(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) - coeff
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return RootPolynomial(self.rank, out, _clean=True)

    def __mul__(self, other: "RootPolynomial") -> "RootPolynomial":
        self._check_rank(other)
        small, large = (other, self) if len(self.terms) > len(other.terms) else (self, other)
        return RootPolynomial(self.rank, _add_product({}, small, large), _clean=True)

    def add_product(self, a: "RootPolynomial", b: "RootPolynomial") -> "RootPolynomial":
        """``self + a * b`` in one pass, adding the terms of a times each
        term of b into a copy of self's terms.  A product of degree
        ``DEGREE_LIMIT`` or more raises ValueError.  Loops over a's terms
        outside, so a should be the shorter."""
        self._check_rank(a)
        self._check_rank(b)
        return RootPolynomial(self.rank, _add_product(dict(self.terms), a, b), _clean=True)

    def scale(self, k: int) -> "RootPolynomial":
        k = int(k)
        if k == 0:
            return RootPolynomial.zero(self.rank)
        return RootPolynomial(
            self.rank, {e: k * c for e, c in self.terms.items()}, _clean=True
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootPolynomial)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-ish container semantics; never used as a key

    def __repr__(self) -> str:
        return f"RootPolynomial({self.rank}, {self.to_text()!r})"

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous_of(self, degree: int) -> bool:
        """Zero counts as homogeneous of every degree."""
        return homogeneous_of(self.terms, self.rank, degree)

    def sign_pattern(self) -> str:
        """'nonneg' | 'nonpos' | 'zero' | 'mixed' over the stored coefficients."""
        if not self.terms:
            return "zero"
        low, high = min(self.terms.values()), max(self.terms.values())
        if low < 0 < high:
            return "mixed"
        return "nonneg" if low > 0 else "nonpos"

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponent tuple, coefficient) in descending graded-lex order (canonical)."""
        return unpack_terms(self.rank, sorted(self.terms.items(), reverse=True))

    # -- substitutions ---------------------------------------------------

    def negate_variables(self) -> "RootPolynomial":
        """Substitute a_i -> -a_i, i.e. flip coefficients of odd-degree terms."""
        shift = FIELD_BITS * self.rank
        return RootPolynomial(
            self.rank,
            {e: (-c if e >> shift & 1 else c) for e, c in self.terms.items()},
            _clean=True,
        )

    def apply_linear(self, matrix) -> "RootPolynomial":
        """Substitute a_i by the i-th column of ``matrix``, a signed
        permutation matrix: each a_i goes to +-a_j, and each term to one
        term, its exponents permuted and its sign flipped when its degree
        in the negated variables is odd.  Any other matrix is a ValueError.

        The engine substitutes by the longest element w0 of a finite type.
        -w0 maps the positive roots onto the positive roots, so it maps the
        simple roots, the positive roots that are no sum of two others,
        onto the simple roots: w0(alpha_i) = -alpha_sigma(i), for sigma the
        diagram's opposition involution (the identity where w0 = -1).
        """
        n = self.rank
        moves, keep, odd = _signed_permutation(tuple(map(tuple, matrix)), n)
        out = {}
        for key, coeff in self.terms.items():
            image = key & keep
            for source, target in moves:
                image |= (key >> source & _FIELD_MASK) << target
            out[image] = -coeff if (key & odd).bit_count() & 1 else coeff
        return RootPolynomial(n, out, _clean=True)

    def evaluate(self, values) -> Fraction:
        """Exact evaluation at a_i = values[i-1] (rationals)."""
        return evaluate_many(self.rank, (self,), values)[0]

    def exact_divide_linear(self, lin: "RootPolynomial") -> "RootPolynomial":
        """Exact quotient by a nonzero homogeneous linear form, by
        ``exact_quotient``; NotDivisible if there is none.

        A divisor used more than once should be a ``LinearForm``, which
        checks it and finds its leading variable once; any other
        polynomial is made into one here.
        """
        self._check_rank(lin)
        if not isinstance(lin, LinearForm):
            lin = LinearForm(lin.rank, lin.terms, _clean=True)
        quotient = exact_quotient(self.terms, lin)
        if quotient is None:
            raise NotDivisible(f"{self.to_text()} is not divisible by {lin.to_text()}")
        return RootPolynomial(self.rank, quotient, _clean=True)

    # -- rendering -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``3*a1^2*a2 + a2^3`` or ``0``."""
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            mono = monomial_text(exp)
            mag = abs(coeff)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {"terms": [{"exp": list(e), "coeff": str(c)} for e, c in self.sorted_terms()]}


@lru_cache(maxsize=64)
def _signed_permutation(matrix: tuple, rank: int) -> tuple[tuple, int, int]:
    """How ``apply_linear`` moves a packed key under a signed permutation
    ``matrix`` of ``rank``: the (source, target) shifts of the exponent
    fields that move, the mask of the bits that stay (the degree and the
    fixed fields), and the mask of the low bits of the negated variables'
    fields, whose set bits in a key count, mod 2, its degree in those
    variables.  A ValueError for any other matrix."""
    if len(matrix) != rank or any(len(row) != rank for row in matrix):
        raise ValueError(f"substitution matrix is not {rank} x {rank}")
    shift = [FIELD_BITS * (rank - 1 - i) for i in range(rank)]
    targets, negated = [], []
    for i in range(rank):
        entries = [(j, row[i]) for j, row in enumerate(matrix) if row[i]]
        if len(entries) != 1 or entries[0][1] not in (1, -1):
            raise ValueError(f"substitution matrix {matrix} is not a signed permutation")
        targets.append(entries[0][0])
        negated.append(entries[0][1] < 0)
    if len(set(targets)) != rank:
        raise ValueError(f"substitution matrix {matrix} is not a signed permutation")
    moves = tuple((shift[i], shift[j]) for i, j in enumerate(targets) if i != j)
    keep = (1 << FIELD_BITS * (rank + 1)) - 1
    for source, _ in moves:
        keep &= ~(_FIELD_MASK << source)
    odd = sum(1 << shift[i] for i in range(rank) if negated[i])
    return moves, keep, odd


def _add_product(out: dict, a: RootPolynomial, b: RootPolynomial) -> dict:
    """The packed terms ``out`` plus those of a * b, a's terms in the outer
    loop; ``out`` may be reused.  The one multiply loop of ``__mul__`` and
    ``add_product``."""
    if a.terms and b.terms:
        shift = FIELD_BITS * a.rank
        if (max(a.terms) >> shift) + (max(b.terms) >> shift) >= DEGREE_LIMIT:
            raise ValueError(f"product degree is not below {DEGREE_LIMIT}")
        get = out.get
        factors = b.terms.items()
        # Packed monomials multiply by adding their keys; the degree check
        # above keeps every field of the sum from carrying into the next.
        for e1, c1 in a.terms.items():
            for e2, c2 in factors:
                exp = e1 + e2
                out[exp] = get(exp, 0) + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
    return out


class LinearForm(RootPolynomial):
    """A nonzero homogeneous linear form, checked and prepared once as a divisor.

    It is a polynomial like any other; ``exact_quotient`` reads the
    leading variable found here (the lowest-index one, whose degree-1 key
    is the largest), its coefficient, the shift of its exponent field and
    the other terms, instead of finding them on every call.
    """

    __slots__ = ("pivot_key", "pivot_coeff", "pivot_shift", "rest")

    def __init__(self, rank: int, terms=None, *, _clean: bool = False):
        super().__init__(rank, terms, _clean=_clean)
        if not self.terms or not self.is_homogeneous_of(1):
            raise ValueError("divisor must be homogeneous of degree 1 and nonzero")
        self.pivot_key = max(self.terms)
        self.pivot_coeff = self.terms[self.pivot_key]
        self.pivot_shift = (self.pivot_key ^ 1 << FIELD_BITS * rank).bit_length() - 1
        self.rest = tuple((e, c) for e, c in self.terms.items() if e != self.pivot_key)


def homogeneous_of(terms: dict, rank: int, degree: int) -> bool:
    """Whether every packed term of ``terms``, of rank ``rank``, has the
    degree ``degree``; no terms count as homogeneous of every degree.  The
    degree is a key's top field, so the least and greatest keys bound it."""
    if not terms:
        return True
    shift = FIELD_BITS * rank
    return min(terms) >> shift == degree == max(terms) >> shift


def exact_quotient(terms: dict, lin: LinearForm) -> dict | None:
    """The packed terms (nonzero coefficients) ``terms`` divided exactly by
    ``lin``, or None if there is no exact quotient; ``terms`` is not
    changed.  The one division routine.

    A monomial divisor c*x divides each term on its own.  Any other is
    divided by one pass of synthetic division in the divisor's leading
    variable x (its lowest-index one): with the divisor c*x + L and the
    terms bucketed by their degree in x, bucket k, cleared from the top
    down, fixes the quotient terms of x-degree k - 1 and pushes their
    products with L into bucket k - 1.  A quotient coefficient that is not
    an integer, or anything left in bucket 0, means there is no quotient.
    """
    pivot_key, pivot_coeff, pivot_shift = lin.pivot_key, lin.pivot_coeff, lin.pivot_shift
    rest = lin.rest
    quotient: dict = {}
    if not rest:
        # 72% of mult-A4's divisors, 39% of sweep-affA2's; 4.7 us vs 9.4 synthetic, 2-vCPU VM.
        for exp, coeff in terms.items():
            q, r = divmod(coeff, pivot_coeff)
            if r or not exp >> pivot_shift & _FIELD_MASK:
                return None
            quotient[exp - pivot_key] = q
        return quotient
    if not terms:
        return quotient
    top = max(terms) >> FIELD_BITS * lin.rank
    # No exponent exceeds the total degree, so that many buckets suffice.
    buckets: list[dict] = [{} for _ in range(top + 1)]
    for exp, coeff in terms.items():
        buckets[exp >> pivot_shift & _FIELD_MASK][exp] = coeff
    for k in range(top, 0, -1):
        below = buckets[k - 1]
        get = below.get
        for exp, coeff in buckets[k].items():
            if not coeff:
                continue
            q, r = divmod(coeff, pivot_coeff)
            if r:
                return None
            # Subtracting the pivot's key lowers both the degree and the
            # x-exponent by one.
            qexp = exp - pivot_key
            quotient[qexp] = q
            for rexp, rcoeff in rest:
                texp = qexp + rexp
                below[texp] = get(texp, 0) - q * rcoeff
    if any(buckets[0].values()):
        return None
    return quotient


def evaluate_many(rank: int, polys, values) -> list[Fraction]:
    """Exact values of polynomials of one rank at a_i = values[i-1]
    (rationals), from one table of the point's powers up to their largest
    degree.  The point is converted only if some polynomial is nonzero."""
    if len(values) != rank:
        raise RankMismatch("evaluation point has wrong rank")
    from fractions import Fraction

    zero = Fraction(0)
    top = max((max(p.terms) for p in polys if p.terms), default=-1) >> FIELD_BITS * rank
    if top < 0:
        return [zero] * len(polys)
    vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    # With a_i = n_i / d_i, a term times prod d_i^top is its coefficient
    # times prod scaled[i][e_i], where scaled[i][e] = n_i^e d_i^(top - e).
    scaled = [[v.numerator**e * v.denominator**(top - e) for e in range(top + 1)] for v in vals]
    denom = prod(v.denominator for v in vals) ** top
    out = []
    for p in polys:
        acc = 0
        if p.terms:
            for exp, coeff in unpack_terms(rank, p.terms.items()):
                for row, e in zip(scaled, exp):
                    coeff *= row[e]
                acc += coeff
        out.append(Fraction(acc, denom) if acc else zero)
    return out


def monomial_text(exp: tuple[int, ...]) -> str:
    factors = []
    for i, e in enumerate(exp):
        if e == 1:
            factors.append(f"a{i + 1}")
        elif e > 1:
            factors.append(f"a{i + 1}^{e}")
    return "*".join(factors) if factors else "1"
