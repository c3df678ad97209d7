"""Weyl group elements as exact integer matrices on the root lattice.

An element is identified by its action matrix (columns are the images of
the simple roots); words are non-unique, so the matrix is the identity of
record.  Words act on the left, applied right to left:
``word = (i1, .., ik)`` means ``s_{i1} s_{i2} ... s_{ik}``.  The canonical
reduced word of w is that of its parent w s_d followed by d, the smallest
right descent of w (Bjorner-Brenti, GTM 231); ``canonicalize`` finds it by
stripping descents, ``enumerate_upto`` by extending parents.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import add

from .errors import (
    InternalInconsistency,
    NotFiniteType,
    NotGroupElement,
    RankMismatch,
    ResourceCap,
)
from .rootsys import FINITE, LinearForm, RootPolynomial, RootSystem

DEFAULT_WORD_CAP = 10_000
DEFAULT_ENUM_CAP = 100_000

Matrix = tuple[tuple[int, ...], ...]


def _identity_matrix(rank: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def _reflect_right(rs: RootSystem, m: Matrix, i: int) -> Matrix:
    """m * s_{i+1}: column j becomes column j - a[i][j] * column i.

    A row whose entry in column i is zero is unchanged.
    """
    a = rs.cartan.entries[i]
    return tuple(
        [tuple([x - c * row[i] for x, c in zip(row, a)]) if row[i] else row for row in m]
    )


def _column(m: Matrix, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in m)


def _column_is_negative(m: Matrix, j: int) -> bool:
    neg = False
    for row in m:
        v = row[j]
        if v > 0:
            return False
        if v < 0:
            neg = True
    return neg


def _column_is_positive(m: Matrix, j: int) -> bool:
    pos = False
    for row in m:
        v = row[j]
        if v < 0:
            return False
        if v > 0:
            pos = True
    return pos


class WeylElement:
    """Group element with cached length and canonical reduced word."""

    __slots__ = ("rs", "matrix", "word", "_hash")

    def __init__(self, rs: RootSystem, matrix: Matrix, word: tuple[int, ...]):
        self.rs = rs
        self.matrix = matrix
        self.word = word
        # Tuples of ints hash alike in every process, so a pickled
        # element-keyed dict is found by elements built after loading it.
        self._hash = hash((matrix, rs.cartan.entries))

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.matrix == other.matrix
            and self.rs.cartan.entries == other.rs.cartan.entries
            and self.rs.kind == other.rs.kind
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"WeylElement({self.word_text()})"

    def word_text(self) -> str:
        return word_text(self.word)


@lru_cache(maxsize=None)
def word_text(word: tuple[int, ...]) -> str:
    """The text of a word, such as "1,2,1", or "e" for the empty word;
    memoised per word, since ``mult`` prints a word per row."""
    return ",".join(str(i) for i in word) if word else "e"


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, _identity_matrix(rs.rank), ())


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple reflection index {i} out of range")
    return WeylElement(rs, _reflect_right(rs, _identity_matrix(rs.rank), i - 1), (i,))


def canonicalize(rs: RootSystem, matrix, *, cap: int = DEFAULT_WORD_CAP) -> WeylElement:
    """Build the element with the given action matrix.

    Strips the smallest right descent until the identity is reached; the
    letters stripped last come first in the canonical word.  Works
    uniformly for finite and Kac-Moody matrices.  Raises NotGroupElement
    if no descent exists for a non-identity matrix, and ResourceCap if the
    loop exceeds ``cap`` steps, which an element longer than ``cap`` does.
    """
    m = tuple(tuple(int(x) for x in row) for row in matrix)
    n = rs.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise RankMismatch("matrix rank does not match root system")
    ident = _identity_matrix(n)
    letters = []
    cur = m
    steps = 0
    while cur != ident:
        steps += 1
        if steps > cap:
            raise ResourceCap(f"descent loop exceeded {cap} steps")
        descent = next((i for i in range(n) if _column_is_negative(cur, i)), None)
        if descent is None:
            raise NotGroupElement("matrix has no descent and is not the identity")
        letters.append(descent + 1)
        cur = _reflect_right(rs, cur, descent)
    return WeylElement(rs, m, tuple(reversed(letters)))


def element_from_word(rs: RootSystem, word) -> WeylElement:
    """Product of simple reflections; the input word need not be reduced."""
    m = _identity_matrix(rs.rank)
    for i in word:
        if not 1 <= int(i) <= rs.rank:
            raise ValueError(f"letter {i} out of range for rank {rs.rank}")
        m = _reflect_right(rs, m, int(i) - 1)
    return canonicalize(rs, m)


def _check_same_system(rs: RootSystem, *elements: WeylElement):
    if any(x.rs.cartan.entries != rs.cartan.entries or x.rs.kind != rs.kind for x in elements):
        raise RankMismatch("elements belong to different root systems")


def inverse(w: WeylElement) -> WeylElement:
    return element_from_word(w.rs, reversed(w.word))


def inversion_coords(rs: RootSystem, word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """beta_j = s_{i1} .. s_{i_{j-1}} (alpha_{i_j}) for each letter of a word.

    For a reduced word of w these are the inversion roots of w^{-1};
    ``localize.restriction_column`` weights the letters of the word by them.
    """
    out = []
    cur = _identity_matrix(rs.rank)
    for i in word:
        out.append(_column(cur, i - 1))
        cur = _reflect_right(rs, cur, i - 1)
    return out


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order test by right-to-left greedy matching on w's word.

    Independent of ``WeylRange.leq``, which the test suite checks against it.
    """
    _check_same_system(u.rs, w)
    if u.length > w.length:
        return False
    if u.length == 0:
        return True
    cur = u.matrix
    remaining = u.length
    for letter in reversed(w.word):
        if _column_is_negative(cur, letter - 1):
            cur = _reflect_right(u.rs, cur, letter - 1)
            remaining -= 1
            if remaining == 0:
                return True
    return False


class WeylRange:
    """All elements of length <= bound, sorted by (length, word lex).

    An element's id is its position in ``elements``, so ids run in length
    order, ``index`` maps an element to its id and ``lengths`` lists the
    ids' lengths: a reader of a smaller bound takes the first
    ``bisect_right(lengths, bound)`` ids of the range as it is.
    ``complete`` is True when the range provably exhausts the whole group
    (no element of maximal stored length has a length-increasing
    extension).  ``right_mul[w]`` lists the ids of w s_1, .., w s_rank,
    None where w s_i leaves the range.  ``last_root[w]`` is the last root
    of ``inversion_coords(rs, w.word)``, the root parent(alpha_d) its
    canonical word's last letter d adds, as a ``LinearForm`` (None at id 0).
    ``xi[w][i]`` holds the coordinates on the simple roots of
    xi^{s_{i+1}}(w) = omega_{i+1} - w(omega_{i+1}): the sum of the last
    roots w's canonical word adds at its letters i + 1.  ``memo(name)``
    holds data that depends on the range alone: the inversion products,
    the store of restriction values, each entry checked once, when it
    enters the store, with the packed monomials of their terms, kept once
    (``localize.restriction_table``), the steps of the Chevalley
    recurrence at each id, with their shared divisors and the Chevalley
    integers of each cover (``structconst._recurrence``), and the text
    each id has in a record or a ``mult`` line where its value is zero
    (``structconst.record_text``).
    """

    def __init__(self, rs: RootSystem, bound: int, elements: tuple[WeylElement, ...],
                 complete: bool, right_mul: list, last_root: list, xi: list):
        self.rs = rs
        self.bound = bound
        self.elements = elements
        self.complete = complete
        self.right_mul = right_mul
        self.last_root = last_root
        self.xi = xi
        self._memos: dict = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def index(self) -> dict:
        """Element -> id."""
        return {w: k for k, w in enumerate(self.elements)}

    @cached_property
    def lengths(self) -> list:
        """The length of each id, in id order, so nondecreasing: bisecting
        it finds where a length starts, and so the ids up to a smaller bound."""
        return [w.length for w in self.elements]

    @cached_property
    def leq(self) -> list:
        """The frozenset of the ids u <= w in Bruhat order, for each id w.

        Built along canonical words by the lifting property (Bjorner-Brenti,
        GTM 231, 2.2): with i the last letter of v and v' = v s_i, the
        elements below v are those below v' and their products with s_i.
        """
        rmul = self.right_mul
        below = [frozenset((0,))]
        for v in range(1, len(self.elements)):
            i = self.elements[v].word[-1] - 1
            parent = below[rmul[v][i]]
            below.append(parent.union([rmul[u][i] for u in parent]))
        return below

    def memo(self, name: str) -> dict:
        """The dict kept under ``name`` for data computed per id."""
        return self._memos.setdefault(name, {})

    def inversion_product(self, w: int) -> RootPolynomial:
        """The product of the roots ``inversion_coords`` gives along the
        canonical word of the id ``w``, its diagonal restriction value.

        It is built from the word, not from ``last_root``, so it checks the
        recursion that reads those, and it is kept per id in ``memo``.
        """
        products = self.memo("inversion products")
        poly = products.get(w)
        if poly is None:
            rank = self.rs.rank
            poly = RootPolynomial.one(rank)
            for coords in inversion_coords(self.rs, self.elements[w].word):
                poly = poly * RootPolynomial.from_linear(rank, coords)
            products[w] = poly
        return poly


def enumerate_upto(rs: RootSystem, k: int, *, cap: int = DEFAULT_ENUM_CAP) -> WeylRange:
    """Breadth-first closure under length-increasing right multiplication.

    Each product w s_i is computed once, from the side where i is an
    ascent, and recorded both ways, so the letters recorded for an element
    of the level being extended are its right descents and the rest its
    ascents.  Letters are tried in increasing order, so a new element is
    first reached from its parent w s_d, d its smallest right descent: its
    canonical word is the parent's followed by d, and its last root is
    parent(alpha_d).  Its xi is the parent's with that root added at d,
    since xi^{s_i}(w) = xi^{s_i}(parent) + [d = i] parent(alpha_d).  A
    level's ids are given once it is sorted.
    """
    if k < 0:
        raise ValueError("length bound must be nonnegative")
    n = rs.rank
    elements = [identity(rs)]
    rmul = [[None] * n]
    roots = [None]
    xi = [((0,) * n,) * n]
    level = range(1)
    for _ in range(k):
        # matrix -> [canonical word, last root, (a, i) for each w_a s_i = it]
        found: dict = {}
        for i in range(n):
            for a in level:
                if rmul[a][i] is None:
                    w = elements[a]
                    m = _reflect_right(rs, w.matrix, i)
                    child = found.get(m)
                    if child is None:
                        child = found[m] = [w.word + (i + 1,), _column(w.matrix, i)]
                        if len(elements) + len(found) > cap:
                            raise ResourceCap(
                                f"enumeration exceeded {cap} elements at length bound {k}"
                            )
                    child.append((a, i))
        if not found:
            break
        level = range(len(elements), len(elements) + len(found))
        by_word = sorted(found.items(), key=lambda item: item[1][0])
        for c, (m, (word, root, *parents)) in zip(level, by_word):
            elements.append(WeylElement(rs, m, word))
            rmul.append([None] * n)
            roots.append(LinearForm.from_linear(n, root))
            # The first (a, i) recorded is the canonical parent and letter.
            a, d = parents[0]
            forms = list(xi[a])
            forms[d] = tuple(map(add, forms[d], root))
            xi.append(tuple(forms))
            for a, i in parents:
                rmul[a][i] = c
                rmul[c][i] = a
    complete = all(x is not None for a in level for x in rmul[a])
    return WeylRange(rs, k, tuple(elements), complete, rmul, roots, xi)


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """Unique maximal-length element of a finite-type Weyl group, built
    once per root system.  Its length is checked against the number of
    positive roots (InternalInconsistency otherwise)."""
    if rs.kind != FINITE:
        raise NotFiniteType("longest element requires a finite-type root system")
    cur = _identity_matrix(rs.rank)
    while True:
        ascent = next((i for i in range(rs.rank) if _column_is_positive(cur, i)), None)
        if ascent is None:
            break
        cur = _reflect_right(rs, cur, ascent)
    w0 = canonicalize(rs, cur)
    if w0.length != len(rs.positive_roots):
        raise InternalInconsistency(
            f"longest element has length {w0.length}, but there are"
            f" {len(rs.positive_roots)} positive roots"
        )
    return w0
