"""Root-system construction and exact polynomial arithmetic."""

import pickle
import random
from fractions import Fraction

import pytest

from eqschub import (
    CartanMatrix,
    ClosureOverflow,
    InvalidCartan,
    NotDivisible,
    RankMismatch,
    RootPolynomial,
    build_root_system,
    builtin_root_system,
)
from eqschub import rootsys
from eqschub.rootsys import GENERAL, LinearForm, exact_quotient

from conftest import mat_vec, negate_variables, random_polynomial, substitute_linear


def var(rank, i):
    """The simple root a_i of ``rank``, 1-based."""
    return RootPolynomial.from_linear(rank, [1 if j == i - 1 else 0 for j in range(rank)])


def const(rank, k):
    return RootPolynomial.constant(rank, k)


# ---------------------------------------------------------------------------
# construction


def test_a1_single_root_and_weight():
    rs = builtin_root_system("A1")
    assert rs.positive_roots == ((1,),)
    assert rs.fundamental_weights == ((Fraction(1, 2),),)


def test_a2_reflection_closure():
    rs = builtin_root_system("A2")
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert all(type(c) is int for r in rs.positive_roots for c in r)


def test_affine_matrix_as_finite_overflows():
    cartan = CartanMatrix(((2, -2), (-2, 2)))
    with pytest.raises(ClosureOverflow):
        build_root_system(cartan, "finite", root_cap=100)


def test_general_kind_skips_closure():
    rs = builtin_root_system("AffineA1")
    assert rs.kind == GENERAL
    assert rs.positive_roots is None
    assert rs.fundamental_weights is None


@pytest.mark.parametrize(
    "name,count", [("A2", 3), ("A3", 6), ("B2", 4), ("G2", 6)]
)
def test_classical_positive_root_counts(name, count):
    rs = builtin_root_system(name)
    assert len(rs.positive_roots) == count


def test_positive_roots_uniformly_nonnegative():
    for name in ("A2", "A3", "B2", "G2"):
        rs = builtin_root_system(name)
        for root in rs.positive_roots:
            assert min(root) >= 0 and max(root) > 0


def test_closure_closed_under_reflection_up_to_sign():
    from eqschub import element_from_word

    for name in ("A2", "A3", "B2", "G2"):
        rs = builtin_root_system(name)
        positives = set(rs.positive_roots)
        for root in rs.positive_roots:
            for i in range(1, rs.rank + 1):
                image = mat_vec(element_from_word(rs, (i,)).matrix, root)
                assert image in positives or tuple(-c for c in image) in positives


def test_fundamental_weights_dual_to_coroots():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        rs = builtin_root_system(name)
        for j, omega in enumerate(rs.fundamental_weights, start=1):
            for i in range(1, rs.rank + 1):
                expected = Fraction(1 if i == j else 0)
                row = rs.cartan.entries[i - 1]
                assert sum(a * c for a, c in zip(row, omega)) == expected


@pytest.mark.parametrize("name", ["A3", "AffineA1"])
def test_cartan_and_root_system_are_values(name, monkeypatch):
    """A rebuilt copy and a pickled copy equal the original and hash alike,
    without computing weights; no field can be assigned."""
    rs = builtin_root_system(name)
    weights = rs.fundamental_weights

    def no_weights(entries):
        raise AssertionError("equality, hashing or pickling computed weights")

    monkeypatch.setattr(rootsys, "_invert_matrix", no_weights)
    rebuilt = build_root_system(CartanMatrix.from_rows(list(rs.cartan.entries)), rs.kind)
    for copy in (rebuilt, pickle.loads(pickle.dumps(rs))):
        assert copy is not rs
        assert copy == rs and hash(copy) == hash(rs)
        assert copy.cartan == rs.cartan and hash(copy.cartan) == hash(rs.cartan)
    assert rs != build_root_system(rs.cartan, rs.kind, descriptor="other")
    for obj, field in ((rs.cartan, "entries"), (rs, "cartan"), (rs, "kind"),
                       (rs, "positive_roots"), (rs, "descriptor"), (rs, "fundamental_weights")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    monkeypatch.undo()
    assert pickle.loads(pickle.dumps(rs)).fundamental_weights == weights


def test_invalid_cartan_rejected():
    with pytest.raises(InvalidCartan):
        CartanMatrix(((1,),))
    with pytest.raises(InvalidCartan):
        CartanMatrix(((2, 1), (-1, 2)))
    with pytest.raises(InvalidCartan):
        CartanMatrix(((2, 0), (-1, 2)))
    with pytest.raises(InvalidCartan):
        CartanMatrix(((2, -1), (-1,)))
    for rows in (((2.0, -1), (-1, 2)), ((2, False), (False, 2))):
        with pytest.raises(InvalidCartan):
            CartanMatrix(rows)


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_add_cancels_to_zero():
    a1 = var(2, 1)
    assert (a1 + -a1).is_zero()


def test_add_merges_like_terms():
    sq = var(1, 1) * var(1, 1)
    assert sq + sq * const(1, 2) == sq * const(1, 3)


def test_mul_distributes():
    a1, a2 = var(2, 1), var(2, 2)
    assert a1 * (a1 + a2) == a1 * a1 + a1 * a2


def test_mul_identity():
    p = RootPolynomial(2, {(2, 1): 3, (0, 1): -4})
    assert p * RootPolynomial.one(2) == p


def test_difference_of_squares():
    a1, a2 = var(2, 1), var(2, 2)
    assert (a1 - a2) * (a1 + a2) == a1 * a1 - a2 * a2


def test_rank_mismatch_raises():
    with pytest.raises(RankMismatch):
        var(1, 1) + var(2, 1)
    with pytest.raises(RankMismatch):
        var(1, 1) * var(2, 1)


def test_divide_examples():
    a1, a2 = var(2, 1), var(2, 2)
    assert (a1 * a1 + a1 * a2).exact_divide_linear(a1) == a1 + a2
    assert RootPolynomial.zero(2).exact_divide_linear(a1).is_zero()
    with pytest.raises(NotDivisible):
        (a1 + a2).exact_divide_linear(a1)


def test_divide_rejects_bad_divisor():
    a1 = var(2, 1)
    with pytest.raises(ValueError):
        a1.exact_divide_linear(RootPolynomial.zero(2))
    with pytest.raises(ValueError):
        a1.exact_divide_linear(a1 * a1)


def test_negate_variables_examples():
    a1, a2 = var(2, 1), var(2, 2)
    assert negate_variables(a1) == -a1
    assert negate_variables(a1 * a1 - a2) == a1 * a1 + a2
    assert negate_variables(RootPolynomial.zero(2)).is_zero()


def test_alpha_sign_classification():
    a1, a2 = var(2, 1), var(2, 2)
    assert (a1 + a1 * a2 * const(2, 2)).sign_pattern() == "nonneg"
    assert (-a1).sign_pattern() == "nonpos"
    assert (a1 - a2).sign_pattern() == "mixed"
    assert RootPolynomial.zero(2).sign_pattern() == "zero"


def test_mul_commutative_associative_randomized():
    rng = random.Random(7)
    for _ in range(60):
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        r = random_polynomial(rng, 3)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_divide_inverts_multiply_randomized():
    rng = random.Random(11)
    for _ in range(60):
        p = random_polynomial(rng, 3)
        coords = [rng.randint(-3, 3) for _ in range(3)]
        if not any(coords):
            coords[rng.randrange(3)] = 1
        lin = RootPolynomial.from_linear(3, coords)
        assert (p * lin).exact_divide_linear(lin) == p


def test_divide_rejects_product_plus_pivot_free_monomial_randomized():
    """p * lin + m has no exact quotient when the monomial m is free of the
    divisor's leading (lowest-index) variable."""
    rng = random.Random(17)
    for _ in range(60):
        p = random_polynomial(rng, 3)
        coords = [rng.randint(-3, 3) for _ in range(3)]
        if not any(coords):
            coords[rng.randrange(3)] = 1
        lin = RootPolynomial.from_linear(3, coords)
        pivot = next(i for i, c in enumerate(coords) if c)
        exp = [rng.randint(0, 3) for _ in range(3)]
        exp[pivot] = 0
        m = RootPolynomial(3, {tuple(exp): rng.choice([-5, -2, -1, 1, 3, 7])})
        with pytest.raises(NotDivisible):
            (p * lin + m).exact_divide_linear(lin)


def test_divide_rejects_non_integral_quotient():
    a1, a2 = var(2, 1), var(2, 2)
    with pytest.raises(NotDivisible):
        (a1 + a2).exact_divide_linear((a1 + a2) * const(2, 2))
    # Nothing is left over here, so only the integrality test can refuse it.
    with pytest.raises(NotDivisible):
        (a1 * a2 * const(2, 3)).exact_divide_linear(a1 * const(2, 2))
    assert ((a1 + a2) * const(2, 2) * a2).exact_divide_linear((a1 + a2) * const(2, 2)) == a2
    # Linear dividends: k = 3/2 and -1/2.
    with pytest.raises(NotDivisible):
        (a1 * const(2, 3) + a2 * const(2, 3)).exact_divide_linear((a1 + a2) * const(2, 2))
    with pytest.raises(NotDivisible):
        (-a1).exact_divide_linear(a1 * const(2, 2))


def test_divide_non_homogeneous_dividends():
    """Constant quotients make linear dividends k * lin, k = 1, -1, 3, -4."""
    a1, a2, a3 = var(3, 1), var(3, 2), var(3, 3)
    one = RootPolynomial.one(3)
    for lin in (a1, a2 - a3 * const(3, 2), a1 * const(3, 3) + a2 - a3, a3):
        for q in (one, -one, const(3, 3), const(3, -4), a2 + const(3, 5),
                  a1 * a1 * a3 - a2 + one, a1 * a2 * a3 + a3 * const(3, 4)):
            assert (q * lin).exact_divide_linear(lin) == q


@pytest.mark.parametrize(
    "coords", [(0, 2, 0), (2, 0, -1), (-2, 1, 3)], ids=["1-term", "2-term", "3-term"]
)
def test_divide_linear_dividends(coords):
    """A linear dividend has a quotient only if it is k * lin for an integer
    k.  k * lin with one coefficient off the pivot changed, or with an
    extra constant term, or lin with its pivot's coefficient one more, so
    that k is not an integer, has none; ``exact_quotient`` says so with
    None and leaves the dividend as it was."""
    lin = RootPolynomial.from_linear(3, coords)
    form = LinearForm(3, lin.terms, _clean=True)
    for k in (1, -1, 3, -4):
        assert (lin * const(3, k)).exact_divide_linear(lin) == const(3, k)
        assert exact_quotient((lin * const(3, k)).terms, form) == {0: k}
    pivot = next(i for i, c in enumerate(coords) if c)
    off = [0, 0, 0]
    off[2 if pivot < 2 else 0] = 1
    at_pivot = [0, 0, 0]
    at_pivot[pivot] = 1
    for bad in (
        lin * const(3, 3) + RootPolynomial.from_linear(3, off),
        lin * const(3, -2) + RootPolynomial.one(3),
        lin + RootPolynomial.from_linear(3, at_pivot),
    ):
        terms = dict(bad.terms)
        with pytest.raises(NotDivisible):
            bad.exact_divide_linear(lin)
        assert exact_quotient(bad.terms, form) is None
        assert bad.terms == terms


def test_negate_variables_is_involution():
    rng = random.Random(13)
    for _ in range(40):
        p = random_polynomial(rng, 2)
        assert negate_variables(negate_variables(p)) == p


# ---------------------------------------------------------------------------
# evaluation, substitution, serialization


def test_evaluate_exact_rationals():
    a1, a2 = var(2, 1), var(2, 2)
    p = a1 * a1 + a2 * const(2, 3)
    assert p.evaluate((Fraction(1, 2), Fraction(2, 3))) == Fraction(1, 4) + 2


def test_evaluate_matches_term_sum_randomized():
    rng = random.Random(17)
    for _ in range(30):
        p = random_polynomial(rng, 2)
        point = (Fraction(rng.randint(1, 9), rng.randint(1, 5)),
                 Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        direct = sum(
            (Fraction(c) * point[0] ** e[0] * point[1] ** e[1] for e, c in p.sorted_terms()),
            Fraction(0),
        )
        assert p.evaluate(point) == direct


def test_evaluate_accepts_ints_strings_and_fractions_alike():
    a1, a2 = var(2, 1), var(2, 2)
    p = a1 * a2 * const(2, 4) + a2 * a2
    expected = Fraction(4 * 3, 2) + 9
    assert p.evaluate((Fraction(1, 2), Fraction(3))) == expected
    assert p.evaluate(("1/2", 3)) == expected
    assert p.evaluate((0.5, "3")) == expected


def test_apply_linear_negation_matrix():
    p = random_polynomial(random.Random(19), 2)
    neg = ((-1, 0), (0, -1))
    assert p.apply_linear(neg) == negate_variables(p)


# Cartan matrices of the finite types whose longest element the tests
# transport by; sigma is trivial on A1, B2, B3, C3, D4 and G2 (w0 = -1) and
# not on A2-A5, D5 and E6.
def _a(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


W0_CARTANS = {
    **{f"A{n}": _a(n) for n in range(1, 6)},
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "D5": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0],
           [0, 0, -1, 0, 2]],
    "E6": [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
           [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
}
NONTRIVIAL_SIGMA = {"A2", "A3", "A4", "A5", "D5", "E6"}


def _w0_matrix(name):
    from eqschub import longest_element

    return longest_element(build_root_system(CartanMatrix.from_rows(W0_CARTANS[name]))).matrix


@pytest.mark.parametrize("name", sorted(W0_CARTANS))
def test_longest_element_is_minus_a_permutation(name):
    """w0(alpha_i) = -alpha_sigma(i): each column of w0 has a single -1, in
    distinct rows, and sigma moves some letter exactly on the types whose
    diagram has a nontrivial opposition."""
    m = _w0_matrix(name)
    n = len(m)
    sigma = []
    for i in range(n):
        column = [row[i] for row in m]
        assert sorted(column) == [-1] + [0] * (n - 1), (name, i)
        sigma.append(column.index(-1))
    assert sorted(sigma) == list(range(n))
    assert (sigma != list(range(n))) == (name in NONTRIVIAL_SIGMA)


# A signed permutation that is not a negation: a1 -> a2, a2 -> -a1, a3 -> a3.
ROTATION = ((0, -1, 0), (1, 0, 0), (0, 0, 1))


@pytest.mark.parametrize("name", [*sorted(W0_CARTANS), "rotation"])
def test_apply_linear_matches_the_general_substitution(name):
    """On seeded random polynomials, the signed-permutation transport equals
    the product expansion of the conftest oracle, for w0 of each type and
    for one signed permutation that is not a negation."""
    m = ROTATION if name == "rotation" else _w0_matrix(name)
    r = random.Random(f"apply_linear {name}")
    for _ in range(20):
        p = random_polynomial(r, len(m), max_terms=8)
        assert p.apply_linear(m) == substitute_linear(p, m), (name, p)


@pytest.mark.parametrize("matrix", [((1, 1), (0, 1)), ((2, 0), (0, 1)), ((0, 1), (0, 1)),
                                    ((1, 0),)])
def test_apply_linear_refuses_a_matrix_that_is_no_signed_permutation(matrix):
    p = var(2, 1) * var(2, 2) + var(2, 1)
    with pytest.raises(ValueError):
        p.apply_linear(matrix)


def test_text_rendering():
    a1, a2 = var(2, 1), var(2, 2)
    p = a1 * a1 * a2 * const(2, 3) + a2 * a2 * a2
    assert p.to_text() == "3*a1^2*a2 + a2^3"
    assert RootPolynomial.zero(2).to_text() == "0"
    assert (-a1).to_text() == "-a1"
    assert (a1 * a1 - a2).to_text() == "a1^2 - a2"
    assert RootPolynomial.constant(2, -5).to_text() == "-5"


def from_json_dict(rank, data):
    """The polynomial of a ``to_json_dict`` form."""
    return RootPolynomial(rank, {tuple(t["exp"]): int(t["coeff"]) for t in data["terms"]})


def test_json_round_trip_and_order():
    p = RootPolynomial(2, {(0, 3): 1, (2, 1): 3, (1, 0): -2})
    data = p.to_json_dict()
    # descending graded-lex: a1^2*a2 before a2^3, degree 1 last
    assert [t["exp"] for t in data["terms"]] == [[2, 1], [0, 3], [1, 0]]
    assert all(isinstance(t["coeff"], str) for t in data["terms"])
    assert from_json_dict(2, data) == p


def test_json_round_trip_randomized():
    rng = random.Random(29)
    for rank in range(1, 5):
        for _ in range(20):
            p = random_polynomial(rng, rank)
            assert from_json_dict(rank, p.to_json_dict()) == p


def _unpack_fields(key, rank):
    """Exponents of a packed key, read field by field; checks the degree field."""
    fields = [key >> 16 * (rank - j) & 0xFFFF for j in range(rank + 1)]
    assert fields[0] == sum(fields[1:])
    return tuple(fields[1:])


def test_sorted_terms_is_graded_lex_of_unpacked_keys_randomized():
    rng = random.Random(31)
    for rank in range(1, 5):
        for _ in range(25):
            p = random_polynomial(rng, rank, max_terms=12, max_exp=5)
            assert all(isinstance(key, int) for key in p.terms)
            unpacked = [(_unpack_fields(key, rank), c) for key, c in p.terms.items()]
            expected = sorted(unpacked, key=lambda t: (sum(t[0]), t[0]), reverse=True)
            assert p.sorted_terms() == expected


def test_degree_overflow_raises_instead_of_wrapping():
    RootPolynomial(1, {(65535,): 1})
    for terms in ({(65536,): 1}, {(32768, 32768): 1}, {(0, 0, 70000): 2}):
        with pytest.raises(ValueError):
            RootPolynomial(len(next(iter(terms))), terms)
    high = RootPolynomial(2, {(40000, 0): 1})
    low = RootPolynomial(2, {(0, 25536): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        high * low
    # One degree below the limit still multiplies, with the fields intact.
    fits = high * RootPolynomial(2, {(0, 25535): 1})
    assert fits.sorted_terms() == [((40000, 25535), 1)]
    assert fits.is_homogeneous_of(65535)


def test_add_product_is_sum_plus_product():
    rng = random.Random(7)
    for _ in range(200):
        p, a, b = (random_polynomial(rng, 3) for _ in range(3))
        assert p.add_product(a, b) == p + a * b
    # Terms that cancel are dropped.
    a1 = RootPolynomial.from_linear(2, (1, 0))
    assert (-a1 * a1).add_product(a1, a1).is_zero()
    with pytest.raises(RankMismatch):
        a1.add_product(a1, RootPolynomial.from_linear(3, (1, 0, 0)))
    high = RootPolynomial(2, {(40000, 0): 1})
    with pytest.raises(ValueError, match="product degree"):
        high.add_product(high, RootPolynomial(2, {(0, 25536): 1}))
    fits = RootPolynomial.zero(2).add_product(high, RootPolynomial(2, {(0, 25535): 1}))
    assert fits.sorted_terms() == [((40000, 25535), 1)]


def test_constructor_rejects_bad_exponent_vectors():
    for rank, exp in [(2, (1,)), (2, (1, 0, 0)), (2, (1, -1)), (1, (-2,))]:
        with pytest.raises(ValueError, match="bad exponent vector"):
            RootPolynomial(rank, {exp: 1})
