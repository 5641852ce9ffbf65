import random

import pytest

from gsc.classical import (
    EXTERIOR_MODEL,
    SYMMETRIC_MODEL,
    TENSOR_MODEL,
    SignedWordElement,
    SortedWordElement,
    WordElement,
    check_operad_axioms,
    exterior_circ,
    random_word_element,
    sort_with_sign,
    symmetric_circ,
    tensor_circ,
)
from gsc.errors import BadPosition, ShapeMismatch


def w(*letters):
    return WordElement.word(letters)


def test_insertion_splices_before_slot():
    out = tensor_circ(w(1, 2), 2, w(9))
    assert out.terms == {(1, 9, 2): 1}
    out = tensor_circ(w(1, 2), 1, w(9))
    assert out.terms == {(9, 1, 2): 1}


def test_unit_laws_tensor():
    x = w(3, 1, 2)
    for i in (1, 2, 3, 4):
        assert tensor_circ(x, i, WordElement.unit()) == x
    assert tensor_circ(WordElement.unit(), 1, x) == x


def test_nested_composition_reverses():
    out = tensor_circ(tensor_circ(w(1), 1, w(2)), 1, w(3))
    assert out.terms == {(3, 2, 1): 1}
    other = tensor_circ(w(1), 1, tensor_circ(w(2), 1, w(3)))
    assert out == other


def test_bad_position_raises():
    with pytest.raises(BadPosition):
        tensor_circ(w(1), 3, w(2))
    with pytest.raises(BadPosition):
        exterior_circ(SignedWordElement.unit(), 2, SignedWordElement.unit())


def test_sort_with_sign():
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1)) is None


def test_exterior_sign_on_smallest_case():
    e1 = SignedWordElement(2, {(1,): 1})
    e2 = SignedWordElement(2, {(2,): 1})
    assert exterior_circ(e1, 1, e2).terms == {(1, 2): -1}
    assert exterior_circ(e1, 2, e2).terms == {(1, 2): 1}


def test_exterior_repeated_letter_vanishes():
    e1 = SignedWordElement(2, {(1,): 1})
    assert exterior_circ(e1, 1, e1).is_zero()


def test_exterior_unit_laws():
    x = SignedWordElement(3, {(1, 3): 2})
    for i in (1, 2, 3):
        assert exterior_circ(x, i, SignedWordElement.unit()) == x
    assert exterior_circ(SignedWordElement.unit(), 1, x) == x


def test_exterior_factors_through_tensor():
    rng = random.Random(99)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        x = random_word_element(rng, m, d=6)
        y = random_word_element(rng, n, d=6)
        i = rng.randint(1, m)
        lhs = SignedWordElement.canonicalize(tensor_circ(x, i, y))
        rhs = exterior_circ(
            SignedWordElement.canonicalize(x), i, SignedWordElement.canonicalize(y)
        )
        assert lhs == rhs


@pytest.mark.parametrize(
    "cls, word",
    [(SignedWordElement, (2, 1)), (SignedWordElement, (1, 1)), (SortedWordElement, (2, 1))],
)
def test_non_canonical_word_is_rejected(cls, word):
    with pytest.raises(ShapeMismatch):
        cls(3, {word: 1})


def test_symmetric_insertion_is_sorted_concatenation():
    rng = random.Random(17)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        wx = tuple(sorted(rng.randint(1, 3) for _ in range(m - 1)))
        wy = tuple(sorted(rng.randint(1, 3) for _ in range(n - 1)))
        x, y = SortedWordElement(m, {wx: 2}), SortedWordElement(n, {wy: -1})
        for i in range(1, m + 1):
            assert symmetric_circ(x, i, y).terms == {tuple(sorted(wx + wy)): -2}


def test_symmetric_insertion_is_commutative_product():
    a = SortedWordElement(2, {(2,): 1})
    b = SortedWordElement(2, {(1,): 1})
    assert symmetric_circ(a, 1, b) == symmetric_circ(b, 1, a)
    assert symmetric_circ(a, 1, b).terms == {(1, 2): 1}


@pytest.mark.parametrize("model", [TENSOR_MODEL, EXTERIOR_MODEL, SYMMETRIC_MODEL])
def test_axiom_suites_pass(model):
    rep = check_operad_axioms(model, 500, 42)
    assert rep.passed, rep.summary()
    assert rep.checked == 1905  # pins the sampling order


def test_axiom_suite_smoke_single_trial():
    rep = check_operad_axioms(TENSOR_MODEL, 1, 7)
    assert rep.passed and rep.trials == 1


def test_checker_reports_minimal_witness_for_mutation():
    from gsc.criteria import MUTATED_EXTERIOR_MODEL

    rep = check_operad_axioms(MUTATED_EXTERIOR_MODEL, 300, 42)
    assert not rep.passed
    assert {f.law for f in rep.failures} == {"parallel-associativity"}
    witness = rep.witness()
    assert witness is not None
    assert sum(witness.arities) == min(sum(f.arities) for f in rep.failures)


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        check_operad_axioms(TENSOR_MODEL, 0, 1)
