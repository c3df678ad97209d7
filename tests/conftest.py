"""Shared test helpers: oracles that stay independent of the code they check."""

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from eqschub import RootPolynomial, element_from_word  # noqa: E402
from eqschub.weyl import inversion_coords  # noqa: E402


def mat_vec(m, v):
    """The image of the simple-root coordinates v under the matrix m, whose
    columns are the images of the simple roots."""
    return tuple(sum(x * c for x, c in zip(row, v)) for row in m)


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def held_rows(table):
    """The rows a restriction table holds at some point: those it holds at
    their own points, read off ``table.rows_at``."""
    return frozenset(w for w, here in table.rows_at.items() if w in here)


def reflection_matrix(rs, i):
    """The matrix of s_{i+1}, read off the Cartan matrix by
    s_i(alpha_j) = alpha_j - a[i][j] alpha_i: row k is e_k for k != i, and
    row i is e_i minus row i of the Cartan matrix."""
    n = rs.rank
    return tuple(
        tuple((j == k) - (rs.cartan.entries[i][j] if k == i else 0) for j in range(n))
        for k in range(n)
    )


def substitute_linear(poly, matrix):
    """poly with each a_i replaced by the linear form of the i-th column of
    the integer ``matrix``, expanded as a product of powers: the oracle of
    ``RootPolynomial.apply_linear``, which takes signed permutations only."""
    n = poly.rank
    images = [RootPolynomial.from_linear(n, [row[i] for row in matrix]) for i in range(n)]
    out = RootPolynomial.zero(n)
    for exp, coeff in poly.sorted_terms():
        term = RootPolynomial.constant(n, coeff)
        for image, e in zip(images, exp):
            for _ in range(e):
                term = term * image
        out = out + term
    return out


def negate_variables(poly):
    """poly with each a_i replaced by -a_i: the coefficient of each term of
    odd degree flips.  The oracle of ``RootPolynomial.apply_linear`` by
    minus the identity, and of the y-basis sign rule."""
    return RootPolynomial(
        poly.rank, {exp: -c if sum(exp) % 2 else c for exp, c in poly.sorted_terms()}
    )


def diagram_automorphisms(cartan):
    """Every permutation sigma of the 0-based nodes with a[sigma i][sigma j]
    = a[i][j] for all i, j, the identity included, as tuples: i -> sigma[i]."""
    n = len(cartan)
    return [
        sigma for sigma in itertools.permutations(range(n))
        if all(cartan[sigma[i]][sigma[j]] == cartan[i][j] for i in range(n) for j in range(n))
    ]


def permute_variables(poly, sigma):
    """poly with each simple root a_{i+1} relabelled a_{sigma[i]+1}."""
    terms = {}
    for exp, coeff in poly.sorted_terms():
        image = [0] * poly.rank
        for i, e in enumerate(exp):
            image[sigma[i]] = e
        terms[tuple(image)] = coeff
    return RootPolynomial(poly.rank, terms)


def right_descents(w):
    """The letters i with w(alpha_i) negative."""
    return [i for i in range(1, w.rs.rank + 1) if all(row[i - 1] <= 0 for row in w.matrix)]


def inversion_product(w):
    """The product of the roots ``inversion_coords`` gives along w's
    canonical word, the diagonal restriction value at w."""
    out = RootPolynomial.one(w.rs.rank)
    for coords in inversion_coords(w.rs, w.word):
        out = out * RootPolynomial.from_linear(w.rs.rank, coords)
    return out


def all_reduced_words(w):
    """Every reduced word of w, by recursive right-descent stripping."""
    if w.length == 0:
        return [()]
    out = []
    for i in right_descents(w):
        shorter = element_from_word(w.rs, w.word + (i,))
        for word in all_reduced_words(shorter):
            out.append(word + (i,))
    return out


def billey_restrict(rs, w, v, *, reduced_word=None):
    """Restriction value for the pair (w, v) by the subword formula; zero
    unless w <= v.  The oracle of ``restriction_table`` and
    ``restriction_column``, which run the one-letter recursion.

    Unrolling that recursion along a reduced word (i1, .., iN) of v gives,
    with beta(j) = s_{i1} .. s_{i_{j-1}} (alpha_{i_j}),

        value(w, v) = sum over position subsets J such that the subword at J
                      is a reduced word for w, of prod_{j in J} beta(j).

    Every term is a product of positive roots.  ``reduced_word`` may
    supply an alternative reduced word for v; the result does not depend
    on the choice (checked by the tests, not assumed here).  Exponential
    in l(v).
    """
    from eqschub import RankMismatch, RootPolynomial
    from eqschub.weyl import (
        _column_is_positive,
        _identity_matrix,
        _reflect_right,
        inversion_coords,
    )

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
    zero = RootPolynomial.zero(rs.rank)

    def walk(pos, partial, chosen, prod):
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

    return walk(0, _identity_matrix(rs.rank), 0, RootPolynomial.one(rs.rank))


def brute_subword_leq(u, w):
    """Bruhat test straight from the subword property.

    Checks every subword of w's canonical word for being a reduced word
    of u.  Exponential; only for small ranges.
    """
    word = w.word
    n = len(word)
    target = u.length
    for mask in range(1 << n):
        if bin(mask).count("1") != target:
            continue
        sub = tuple(word[j] for j in range(n) if mask >> j & 1)
        cand = element_from_word(u.rs, sub)
        if cand.length == target and cand == u:
            return True
    return False


def affine_a_cartan(n):
    """Cartan matrix of the affine type A_n^(1), n >= 2: a cycle of n + 1 nodes."""
    m = n + 1
    return tuple(
        tuple(2 if i == j else -1 if (i - j) % m in (1, m - 1) else 0 for j in range(m))
        for i in range(m)
    )


def triangular_constants(table, u, v):
    """The x-basis constants of (u, v) by Bruhat-triangular elimination:
    the oracle of the Chevalley recurrence.

    Walks the fixed points w in length-then-lex order (a linear extension
    of Bruhat order) and peels off

        value(w) = [ xi_u(w) xi_v(w) - sum_{w' solved} value(w') xi_{w'}(w) ]
                   / xi_w(w)

    dividing the diagonal's inversion roots (rebuilt from
    ``inversion_coords``) out one linear form at a time.  Fixed points
    excluded by the support condition (u <= w and v <= w) are skipped with
    the numerator asserted to vanish; an inexact division or a value of
    the wrong degree is an InternalInconsistency.
    """
    from eqschub import InternalInconsistency, NotDivisible, StructureTable
    from eqschub.rootsys import LinearForm
    from eqschub.weyl import inversion_coords

    rng = table.range
    total = u.length + v.length
    order = tuple(w for w in rng.elements if w.length <= total)
    iu, iv = rng.index[u], rng.index[v]
    zero = RootPolynomial.zero(rng.rs.rank)
    values = {}
    for k, w in enumerate(order):
        column = table.columns[k]
        numerator = column.get(iu, zero) * column.get(iv, zero)
        for wp, poly in values.items():
            numerator = numerator - poly * column.get(wp, zero)
        if iu in rng.leq[k] and iv in rng.leq[k]:
            try:
                for c in inversion_coords(table.range.rs, w.word):
                    numerator = numerator.exact_divide_linear(
                        LinearForm.from_linear(table.range.rs.rank, c)
                    )
            except NotDivisible as exc:
                raise InternalInconsistency(f"inexact division at {w}") from exc
            if not numerator.is_homogeneous_of(total - w.length):
                raise InternalInconsistency(f"value at {w} has the wrong degree")
            if not numerator.is_zero():
                values[k] = numerator
        elif not numerator.is_zero():
            raise InternalInconsistency(f"nonzero numerator at skipped fixed point {w}")
    return StructureTable("x", u, v, values, rng)


def certificate_dict(s, cert):
    """Dict form of the positivity certificate of a structure table, as a
    cache record holds it: one item per w of ``s.order``, empty and
    passing where the certificate has no entry."""
    entries = {e.w: e for e in cert.entries}
    monomials = []
    for k, w in enumerate(s.order):
        e = entries.get(k)
        monomials.append({
            "w": list(w.word),
            "terms": [{"exp": list(exp), "coeff": str(c)} for exp, c in e.monomials] if e else [],
            "verdict": "pass" if e is None or e.ok else "fail",
        })
    return {
        "verdict": cert.verdict,
        "basis": cert.basis,
        "sign_rule": "nonneg" if cert.basis == "x" else "alternating",
        "monomials": monomials,
    }


def record_dict(s, cert=None):
    """Dict form of the cache record of a structure table, built the plain
    way: the oracle of ``structconst.record_text``, which writes it as
    text.  The values come from the table, zero at every w of ``s.order``
    without one; the certificate is built unless one is given."""
    from eqschub import RootPolynomial, positivity_certificate

    if cert is None:
        cert = positivity_certificate(s)
    zero = RootPolynomial.zero(s.rs.rank)
    return {
        "type": s.rs.descriptor,
        "basis": s.basis,
        "u": list(s.u.word),
        "v": list(s.v.word),
        "values": [
            {"w": list(w.word), "poly": s.values.get(k, zero).to_json_dict()}
            for k, w in enumerate(s.order)
        ],
        "certificate": certificate_dict(s, cert),
    }


def random_polynomial(rng, rank, max_terms=5, max_exp=3, max_coeff=9):
    """Small random integer polynomial for algebra property tests."""
    from eqschub import RootPolynomial

    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(rank))
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[exp] = terms.get(exp, 0) + coeff
    return RootPolynomial(rank, terms)
