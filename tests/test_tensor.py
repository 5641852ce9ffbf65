import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsc.elements import (
    RectMonomial,
    TriElement,
    element_from_json_text,
    element_to_json_text,
    expand_multilinear,
    monomial_from_json,
    monomial_to_json,
)
from gsc.errors import DegreeMismatch, ShapeMismatch
from gsc.tensor import (
    TriMonomial,
    _words_with_counts,
    count_block_monomials,
    enumerate_block_monomials,
    multidegree_of,
    multidegrees,
    n_triangle_entries,
    rank_in_block,
    rank_words_in_block,
    triangle_positions,
    unrank_in_block,
    word_array,
)


def test_position_order_is_row_major_lex():
    assert triangle_positions(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_units_are_distinct():
    assert TriMonomial.unit() != TriMonomial.generator()
    assert TriMonomial.unit().arity == 1
    assert TriMonomial.generator().arity == 2


def test_monomial_entry_access():
    m = TriMonomial.from_dict(3, {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    assert m.entry(2, 3) == 2
    with pytest.raises(ShapeMismatch):
        m.entry(2, 2)
    with pytest.raises(ShapeMismatch):
        TriMonomial(3, (1, 1))


def test_enumerate_block_sizes():
    assert len(enumerate_block_monomials(3, (1, 1, 1))) == 6
    assert len(enumerate_block_monomials(4, (3, 3))) == 20
    assert count_block_monomials(6, (5, 5, 5)) == 756756
    with pytest.raises(DegreeMismatch):
        enumerate_block_monomials(3, (1, 1))


def test_negative_letter_count_is_named():
    # (-1, 4) sums to 3, so the error is the negative entry, not the sum
    with pytest.raises(DegreeMismatch, match=r"negative letter count -1"):
        count_block_monomials(3, (-1, 4))
    with pytest.raises(DegreeMismatch, match="does not sum to 3"):
        count_block_monomials(3, (1, 1))


def test_negative_size_is_refused_and_size_zero_is_the_unit():
    # n_triangle_entries(-2) is 3, so only the size check refuses (3,)
    with pytest.raises(DegreeMismatch, match="triangle size -2 is negative"):
        count_block_monomials(-2, (3,))
    assert count_block_monomials(0, (0, 0)) == 1


def test_enumeration_is_sorted_and_on_degree():
    monos = enumerate_block_monomials(4, (3, 3))
    assert monos == sorted(monos)
    assert all(multidegree_of(m, 2) == (3, 3) for m in monos)


@pytest.mark.parametrize(
    "counts", [(), (0, 0), (3,), (1, 0, 2), (2, 2, 2), (4, 4, 2), (7, 4, 1)]
)
def test_word_array_matches_recursive_words(counts):
    words = word_array(counts)
    assert words.dtype == np.int64
    n_words = math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
    assert words.shape == (n_words, sum(counts))
    assert list(map(tuple, words.tolist())) == list(_words_with_counts(list(counts)))


def test_block_monomials_are_the_recursive_words():
    monos = enumerate_block_monomials(4, (3, 2, 1))
    assert monos == [TriMonomial(4, w) for w in _words_with_counts([3, 2, 1])]
    assert len(monos) == 60
    assert monos[0].entries == (1, 1, 1, 2, 2, 3) and monos[-1].entries == (3, 2, 2, 1, 1, 1)
    assert all(type(e) is int for m in monos for e in m.entries)


def test_block_sizes_partition_full_space():
    for d, size in ((2, 4), (3, 3)):
        total = sum(
            count_block_monomials(size, k)
            for k in multidegrees(n_triangle_entries(size), d)
        )
        assert total == d ** n_triangle_entries(size)


def test_enumeration_count_matches_multinomial_small():
    for size in range(2, 6):
        for d in (1, 2, 3):
            for k in multidegrees(n_triangle_entries(size), d):
                expected = math.factorial(n_triangle_entries(size))
                for x in k:
                    expected //= math.factorial(x)
                assert len(enumerate_block_monomials(size, k)) == expected


def test_multidegree_of_examples():
    assert multidegree_of(TriMonomial.unit(), 3) == (0, 0, 0)
    m = TriMonomial.from_dict(3, {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    assert multidegree_of(m, 2) == (2, 1)
    spanning = TriMonomial(4, (1, 2, 2, 1, 2, 1))
    assert multidegree_of(spanning, 2) == (3, 3)


def test_rank_unrank_bijection():
    monos = enumerate_block_monomials(4, (3, 2, 1))
    for idx, m in enumerate(monos):
        assert rank_in_block(m.entries, (3, 2, 1)) == idx
        assert unrank_in_block(idx, 4, (3, 2, 1)) == m


@pytest.mark.parametrize(
    "size,k", [(3, (2, 1)), (4, (3, 2, 1)), (4, (4, 2, 0)), (4, (2, 2, 1, 1)), (5, (4, 4, 2))]
)
def test_vectorized_rank_matches_scalar_on_every_word(size, k):
    words = [m.entries for m in enumerate_block_monomials(size, k)]
    got = rank_words_in_block(np.array(words), k).tolist()
    assert got == [rank_in_block(w, k) for w in words]
    # shuffled rows rank independently of each other
    perm = np.random.default_rng(0).permutation(len(words))
    assert rank_words_in_block(np.array(words)[perm], k).tolist() == [got[i] for i in perm]


def test_vectorized_rank_beyond_int64():
    # 45 positions, 15 of each letter: more words than an int64 holds
    k = (15, 15, 15)
    total = count_block_monomials(10, k)
    assert total >= 2**63
    ranks = [0, 123_456_789, 2**63 + 5, total - 1]
    words = np.array([unrank_in_block(r, 10, k).entries for r in ranks])
    assert rank_words_in_block(words, k).tolist() == ranks


@given(st.integers(0, 756755))
@settings(max_examples=60, deadline=None)
def test_rank_unrank_bijection_conjecture_block(idx):
    m = unrank_in_block(idx, 6, (5, 5, 5))
    assert rank_in_block(m.entries, (5, 5, 5)) == idx


def test_expand_single_basis_vector():
    e1 = (1, 0)
    out = expand_multilinear(3, {p: e1 for p in triangle_positions(3)}, 2)
    assert out.terms == {TriMonomial(3, (1, 1, 1)): 1}


def test_expand_one_slot_general_vector():
    out = expand_multilinear(2, {(1, 2): (2, 3)}, 2)
    assert out.terms == {TriMonomial(2, (1,)): 2, TriMonomial(2, (2,)): 3}


def test_expand_cube_all_ones():
    out = expand_multilinear(3, {p: (1, 1) for p in triangle_positions(3)}, 2)
    assert len(out.terms) == 8
    assert all(c == 1 for c in out.terms.values())


@given(
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@settings(max_examples=60, deadline=None)
def test_expand_is_multilinear(lam, mu, u, w):
    combo = (lam * u[0] + mu * w[0], lam * u[1] + mu * w[1])
    fixed = {(1, 3): (1, 2), (2, 3): (2, -1)}
    lhs = expand_multilinear(3, {(1, 2): combo, **fixed}, 2)
    ru = expand_multilinear(3, {(1, 2): u, **fixed}, 2)
    rw = expand_multilinear(3, {(1, 2): w, **fixed}, 2)
    assert lhs == lam * ru + mu * rw


def test_element_arithmetic_and_validation():
    m1 = TriMonomial(2, (1,))
    m2 = TriMonomial(2, (2,))
    x = TriElement.monomial(m1) + 2 * TriElement.monomial(m2)
    y = x - TriElement.monomial(m1)
    assert y.terms == {m2: 2}
    assert (y - 2 * TriElement.monomial(m2)).is_zero()
    with pytest.raises(ShapeMismatch):
        TriElement(2, {TriMonomial(3, (1, 1, 1)): 1})
    with pytest.raises(ShapeMismatch):
        x + TriElement.zero(3)


def test_rect_monomial_shape_and_access():
    g = RectMonomial.from_rows([[1, 2, 3], [3, 2, 1]])
    assert (g.rows, g.cols) == (2, 3)
    assert g.entry(2, 1) == 3
    with pytest.raises(ShapeMismatch):
        RectMonomial.from_rows([[1], [2, 3]])
    with pytest.raises(ShapeMismatch):
        RectMonomial.empty(2, 2)
    assert RectMonomial.empty(0, 3).entries == ()


@st.composite
def tri_elements(draw):
    size = draw(st.integers(0, 4))
    n = n_triangle_entries(size)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        m = TriMonomial(size, tuple(draw(st.integers(1, 3)) for _ in range(n)))
        coeff = draw(
            st.one_of(
                st.integers(-9, 9).filter(bool),
                st.fractions(min_value=-5, max_value=5).filter(bool),
            )
        )
        terms[m] = coeff
    return TriElement(size, terms)


@given(tri_elements())
@settings(max_examples=100, deadline=None)
def test_json_round_trip(x):
    assert element_from_json_text(element_to_json_text(x)) == x


def test_monomial_json_schema_shape():
    m = TriMonomial.from_dict(3, {(1, 2): 1, (1, 3): 2, (2, 3): 1})
    doc = monomial_to_json(m)
    assert doc == {"size": 3, "entries": {"1,2": 1, "1,3": 2, "2,3": 1}}
    assert monomial_from_json(doc) == m


def test_element_json_coeff_forms():
    m = TriMonomial(2, (1,))
    x = TriElement(2, {m: Fraction(1, 2)})
    text = element_to_json_text(x)
    assert '"1/2"' in text
    y = TriElement(2, {m: 3})
    assert '"coeff": 3' in element_to_json_text(y)
