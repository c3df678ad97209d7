"""Weyl group elements, words, Bruhat order, enumeration."""

import bisect
import os
import pickle
import subprocess
import sys

import pytest

import eqschub
from eqschub import weyl
from eqschub import (
    CartanMatrix,
    NotFiniteType,
    NotGroupElement,
    ResourceCap,
    bruhat_leq,
    build_root_system,
    builtin_root_system,
    canonicalize,
    element_from_word,
    enumerate_upto,
    identity,
    inverse,
    longest_element,
    simple_reflection,
)

from eqschub.rootsys import GENERAL, RootPolynomial
from eqschub.weyl import _reflect_right, inversion_coords

from conftest import (
    affine_a_cartan,
    all_reduced_words,
    brute_subword_leq,
    mat_mul,
    mat_vec,
    reflection_matrix,
)

A1 = builtin_root_system("A1")
A2 = builtin_root_system("A2")
A3 = builtin_root_system("A3")
B2 = builtin_root_system("B2")
G2 = builtin_root_system("G2")
AFF = builtin_root_system("AffineA1")
AFF_A2 = build_root_system(CartanMatrix(affine_a_cartan(2)), GENERAL)
A4 = build_root_system(CartanMatrix(
    ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
))

# Whole finite groups and truncated affine ranges, as (system, bound).
WHOLE_AND_TRUNCATED = [(A3, 6), (G2, 6), (A4, 10), (AFF, 8), (AFF_A2, 5)]
RANGE_IDS = ["A3", "G2", "A4", "AffineA1", "AffineA2"]


# ---------------------------------------------------------------------------
# action


def test_simple_reflection_negates_own_root():
    s1 = simple_reflection(A2, 1)
    assert mat_vec(s1.matrix, (1, 0)) == (-1, 0)


def test_cartan_reflection_formula():
    s1 = simple_reflection(A2, 1)
    assert mat_vec(s1.matrix, (0, 1)) == (1, 1)


def test_identity_acts_trivially():
    assert mat_vec(identity(A2).matrix, (1, 1)) == (1, 1)


@pytest.mark.parametrize("rs", [A1, A3, G2, AFF_A2], ids=["A1", "A3", "G2", "AffineA2"])
def test_simple_reflection_matrix_is_read_off_the_cartan_matrix(rs):
    for i in range(rs.rank):
        s = simple_reflection(rs, i + 1)
        assert s.matrix == reflection_matrix(rs, i) and s.word == (i + 1,)


# ---------------------------------------------------------------------------
# multiplication, canonical words


def test_reflection_is_involution():
    s1 = simple_reflection(A2, 1)
    assert element_from_word(A2, s1.word + s1.word) == identity(A2)


def test_identity_is_neutral():
    w = element_from_word(A2, (1, 2))
    assert element_from_word(A2, identity(A2).word + w.word) == w
    assert element_from_word(A2, w.word + identity(A2).word) == w


def test_a2_closure_has_six_elements_and_s1s2_s1_has_length_3():
    rng = enumerate_upto(A2, 10)
    assert len(rng) == 6
    w = element_from_word(A2, (1, 2) + simple_reflection(A2, 1).word)
    assert w.length == 3


def test_canonicalize_identity():
    e = canonicalize(A2, ((1, 0), (0, 1)))
    assert e.length == 0 and e.word == ()


def test_canonicalize_reproduces_s2():
    s2 = simple_reflection(A2, 2)
    again = canonicalize(A2, s2.matrix)
    assert again.word == (2,) and again.length == 1


def test_canonicalize_longest_a2():
    w0 = longest_element(A2)
    assert w0.length == 3
    assert canonicalize(A2, w0.matrix).word == w0.word == (1, 2, 1)


def test_canonicalize_rejects_non_group_matrix():
    with pytest.raises(NotGroupElement):
        canonicalize(A2, ((0, 1), (1, 1)))


def test_canonicalize_cap_is_a_resource_cap():
    """An element longer than the cap is a valid element that the cap cuts
    off: ResourceCap (exit 3), not NotGroupElement (exit 2)."""
    aff = builtin_root_system("AffineA1")
    w = element_from_word(aff, (1, 2, 1, 2, 1, 2))
    assert w.length == 6 and canonicalize(aff, w.matrix, cap=6) == w
    with pytest.raises(ResourceCap, match="descent loop exceeded 5 steps"):
        canonicalize(aff, w.matrix, cap=5)


def test_non_reduced_word_collapses():
    assert element_from_word(A2, (1, 1)) == identity(A2)
    assert element_from_word(A2, (1, 2, 2, 1)) == identity(A2)


# ---------------------------------------------------------------------------
# Bruhat order


def test_identity_below_everything():
    for w in enumerate_upto(A2, 3):
        assert bruhat_leq(identity(A2), w)


def test_subword_example():
    assert bruhat_leq(element_from_word(A2, (1,)), element_from_word(A2, (1, 2)))


def test_distinct_simple_reflections_incomparable():
    assert not bruhat_leq(element_from_word(A2, (1,)), element_from_word(A2, (2,)))


@pytest.mark.parametrize("rs,k", [(A2, 5), (B2, 5), (AFF, 5)])
def test_bruhat_matches_brute_force_subword_oracle(rs, k):
    rng = enumerate_upto(rs, k)
    assert len(rng) <= 30
    for u in rng:
        for w in rng:
            assert bruhat_leq(u, w) == brute_subword_leq(u, w), (u, w)


@pytest.mark.parametrize("rs,k", [(A2, 5), (B2, 5), (AFF, 5)])
def test_bruhat_is_partial_order(rs, k):
    els = enumerate_upto(rs, k).elements
    for u in els:
        assert bruhat_leq(u, u)
    for u in els:
        for w in els:
            if bruhat_leq(u, w) and bruhat_leq(w, u):
                assert u == w
    for u in els:
        for v in els:
            if not bruhat_leq(u, v):
                continue
            for w in els:
                if bruhat_leq(v, w):
                    assert bruhat_leq(u, w)


@pytest.mark.parametrize(
    "rs,k", [(A3, 6), (G2, 6), (AFF, 8), (AFF_A2, 5)], ids=["A3", "G2", "AffineA1", "AffineA2"]
)
def test_range_leq_matches_bruhat_leq(rs, k):
    rng = enumerate_upto(rs, k)
    assert rng.complete == (rs.kind != GENERAL)
    assert len(rng.leq) == len(rng)
    for a, u in enumerate(rng):
        for b, w in enumerate(rng):
            assert (a in rng.leq[b]) == bruhat_leq(u, w), (u, w)


@pytest.mark.parametrize(
    "rs,k", [(A3, 4), (G2, 4), (AFF_A2, 4)], ids=["A3", "G2", "AffineA2"]
)
def test_reflect_right_matches_matrix_product(rs, k):
    for w in enumerate_upto(rs, k):
        for i in range(rs.rank):
            assert _reflect_right(rs, w.matrix, i) == mat_mul(w.matrix, reflection_matrix(rs, i))


@pytest.mark.parametrize("rs,k", WHOLE_AND_TRUNCATED, ids=RANGE_IDS)
def test_right_mul_matches_multiply(rs, k):
    rng = enumerate_upto(rs, k)
    for a, w in enumerate(rng):
        for i, product in enumerate(rng.right_mul[a], start=1):
            expected = canonicalize(rs, mat_mul(w.matrix, reflection_matrix(rs, i - 1)))
            if expected.length > k:
                assert product is None
            else:
                product = rng.elements[product]
                assert product == expected and product.word == expected.word


@pytest.mark.parametrize("rs,k", WHOLE_AND_TRUNCATED, ids=RANGE_IDS)
def test_inversion_forms_match_inversion_coords(rs, k):
    """The last roots along the prefixes of w's canonical word (each the
    canonical word of an element of the range) are w's inversion roots."""
    rng = enumerate_upto(rs, k)
    by_word = {w.word: a for a, w in enumerate(rng)}
    assert [a for a, root in enumerate(rng.last_root) if root is not None] == list(
        range(1, len(rng))
    )
    for w in rng:
        expected = tuple(
            RootPolynomial.from_linear(rs.rank, c) for c in inversion_coords(rs, w.word)
        )
        prefixes = [by_word[w.word[:j]] for j in range(1, w.length + 1)]
        assert tuple(rng.last_root[x] for x in prefixes) == expected, w


# ---------------------------------------------------------------------------
# inversions


def test_inversions_of_identity_empty():
    assert inversion_coords(A2, identity(A2).word) == []


def test_inversions_a1():
    s = simple_reflection(A1, 1)
    assert inversion_coords(A1, s.word) == [(1,)]


def test_inversions_of_a2_longest():
    got = set(inversion_coords(A2, longest_element(A2).word))
    assert got == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("rs,k", [(A2, 3), (B2, 4), (G2, 6), (AFF, 6)])
def test_length_equals_inversion_count_and_distinct(rs, k):
    for w in enumerate_upto(rs, k):
        inv = inversion_coords(rs, w.word)
        assert len(inv) == w.length
        assert len(set(inv)) == w.length
        for beta in inv:
            assert min(beta) >= 0 and max(beta) > 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_a2_saturates():
    rng = enumerate_upto(A2, 5)
    assert len(rng) == 6
    assert rng.complete


def test_finite_group_orders():
    for name, order in (("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24)):
        rs = builtin_root_system(name)
        rng = enumerate_upto(rs, len(rs.positive_roots))
        assert len(rng) == order
        assert rng.complete


def test_enumerate_affine_a1_counts():
    rng = enumerate_upto(AFF, 3)
    assert len(rng) == 7
    assert not rng.complete
    by_len = {}
    for w in rng:
        by_len[w.length] = by_len.get(w.length, 0) + 1
    assert by_len == {0: 1, 1: 2, 2: 2, 3: 2}


def test_enumerate_zero_bound():
    rng = enumerate_upto(G2, 0)
    assert [w.word for w in rng] == [()]
    assert not rng.complete


def test_enumerate_sorted_and_unique():
    rng = enumerate_upto(B2, 4)
    keys = [(w.length, w.word) for w in rng]
    assert keys == sorted(keys)
    assert len(set(w.matrix for w in rng)) == len(rng)


def test_range_lengths_are_built_once_and_sliced_by_prefixes():
    """The range keeps the length of each id in one list, and bisecting it
    finds where a length starts: a reader of a smaller bound slices it at
    the ids of a fresh range of that bound."""
    whole = enumerate_upto(AFF_A2, 6)
    assert whole.lengths == [w.length for w in whole]
    assert whole.lengths is whole.lengths
    for bound in range(6):
        fresh = enumerate_upto(AFF_A2, bound)
        n = bisect.bisect_right(whole.lengths, bound)
        assert fresh.lengths == whole.lengths[:n] == [w.length for w in fresh]
        assert len(fresh) == n and fresh.elements == whole.elements[:n]


def test_enumerate_resource_cap():
    with pytest.raises(ResourceCap):
        enumerate_upto(AFF, 50, cap=20)


def test_canonicalize_round_trip_over_ranges():
    for rs, k in [(A2, 3), (B2, 4), (AFF, 5)] + WHOLE_AND_TRUNCATED:
        for w in enumerate_upto(rs, k):
            again = canonicalize(rs, w.matrix)
            assert again.word == w.word and again.length == w.length, (rs.descriptor, w)


@pytest.mark.parametrize("rs,k", WHOLE_AND_TRUNCATED, ids=RANGE_IDS)
def test_enumerate_makes_no_canonicalize_call(rs, k, monkeypatch):
    expected = [w.word for w in enumerate_upto(rs, k)]

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_upto called canonicalize")

    monkeypatch.setattr(weyl, "canonicalize", refuse)
    rng = enumerate_upto(rs, k)
    assert [w.word for w in rng] == expected
    assert len(rng.right_mul) == len(rng.last_root) == len(rng)


@pytest.mark.parametrize("rs", [B2, G2, A3], ids=["B2", "G2", "A3"])
def test_bound_past_positive_roots_gives_the_whole_group(rs):
    top = len(rs.positive_roots)
    whole = enumerate_upto(rs, top)
    assert whole.complete
    for k in (top + 1, 2 * top + 3):
        rng = enumerate_upto(rs, k)
        assert rng.elements == whole.elements and rng.complete
    assert not enumerate_upto(rs, top - 1).complete


def test_descent_rule_length_changes_by_one():
    for rs, k in [(A2, 3), (B2, 4), (AFF, 4)]:
        for w in enumerate_upto(rs, k):
            for i in range(1, rs.rank + 1):
                ws = element_from_word(rs, w.word + (i,))
                image = mat_vec(w.matrix, tuple(int(j == i - 1) for j in range(rs.rank)))
                if max(image) <= 0:
                    assert ws.length == w.length - 1
                else:
                    assert ws.length == w.length + 1


# ---------------------------------------------------------------------------
# longest element


def test_longest_examples():
    assert longest_element(A1).length == 1
    assert longest_element(A2).length == 3
    assert longest_element(B2).length == 4
    assert longest_element(G2).length == 6


def test_longest_requires_finite():
    with pytest.raises(NotFiniteType):
        longest_element(AFF)


@pytest.mark.parametrize("rs", [A2, B2, G2])
def test_longest_is_involution_and_reverses_length(rs):
    w0 = longest_element(rs)
    assert element_from_word(rs, w0.word + w0.word) == identity(rs)
    for w in enumerate_upto(rs, w0.length):
        assert element_from_word(rs, w0.word + w.word).length == w0.length - w.length


def test_inverse_round_trip():
    for rs, k in [(A2, 3), (B2, 4), (AFF, 5)]:
        for w in enumerate_upto(rs, k):
            assert element_from_word(rs, w.word + inverse(w).word) == identity(rs)
            assert inverse(w).length == w.length


def test_all_reduced_words_agree_with_element():
    w0 = longest_element(B2)
    words = all_reduced_words(w0)
    assert len(words) >= 2
    for word in words:
        assert element_from_word(B2, word) == w0
        assert len(word) == w0.length


def test_element_hash_is_the_same_in_every_process(tmp_path):
    """A dict keyed by elements, pickled here and loaded in a process with
    another string-hash seed, is found there by elements built there."""
    keyed = {w: w.word for w in enumerate_upto(G2, 4)}
    path = tmp_path / "keyed.pickle"
    path.write_bytes(pickle.dumps(keyed))
    script = (
        "import pickle, sys\n"
        "from eqschub import element_from_word\n"
        "keyed = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "rs = next(iter(keyed)).rs\n"
        "print(sum(keyed.get(element_from_word(rs, word)) == word for word in keyed.values()))\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(eqschub.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == f"{len(keyed)}\n"
