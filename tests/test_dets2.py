import random
from fractions import Fraction

import pytest

from gsc.dets2 import (
    COINCIDENCE_TRIANGLES,
    NORMALIZATION_INPUT,
    PAIR_POSITIONS,
    SPANNING_MONOMIAL,
    check_two_alternating,
    det3,
    det_s2_functional,
    det_s2_raw,
    induced_map_scalar,
    monomial_functional,
)
from gsc.errors import ShapeMismatch
from gsc.echelon import quotient_reduce
from gsc.elements import TriElement
from gsc.quotient import QuotientConfig, clear_memory_cache
from gsc.tensor import TriMonomial


@pytest.fixture()
def cfg(tmp_path):
    clear_memory_cache()
    return QuotientConfig(cache_dir=tmp_path / "cache")


def test_normalization_evaluates_to_one():
    assert det_s2_raw(NORMALIZATION_INPUT) == 1


def test_all_entries_equal_vanishes():
    rng = random.Random(1)
    for _ in range(100):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert det_s2_raw([v] * 6) == 0


def test_triangle_coincidences_vanish_exactly():
    rng = random.Random(2)
    for tri in COINCIDENCE_TRIANGLES:
        for _ in range(100):
            common = (rng.randint(-9, 9), rng.randint(-9, 9))
            pairs = {
                pos: (common if pos in tri else (rng.randint(-9, 9), rng.randint(-9, 9)))
                for pos in PAIR_POSITIONS
            }
            assert det_s2_raw(pairs) == 0


def test_rational_inputs_supported():
    pairs = {pos: (Fraction(1, 3), Fraction(-2, 5)) for pos in PAIR_POSITIONS}
    assert det_s2_raw(pairs) == 0  # all equal
    assert det_s2_raw(NORMALIZATION_INPUT) == 1


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        det_s2_raw([(1, 0)] * 5)
    with pytest.raises(ShapeMismatch):
        det_s2_raw({(1, 2): (1, 0)})


def test_check_two_alternating_report():
    rep = check_two_alternating(200, 7)
    assert rep.passed
    assert rep.nonzero_witness is not None and rep.nonzero_witness[1] != 0


def test_functional_on_spanning_monomial(cfg):
    f = det_s2_functional()
    assert f.evaluate(TriElement.monomial(SPANNING_MONOMIAL)) == 1


def test_functional_kills_repeated_letters(cfg):
    f = det_s2_functional()
    m = TriMonomial(4, (1, 1, 1, 1, 2, 2))
    assert f.evaluate(TriElement.monomial(m)) == 0


def test_functional_kills_reduced_zeros(cfg):
    from gsc.elements import expand_multilinear
    from gsc.tensor import triangle_positions

    f = det_s2_functional()
    g = expand_multilinear(3, {p: (1, -2) for p in triangle_positions(3)}, 2)
    # push the size-3 generator image to size 4 by inserting the arity-2
    # element at slot 4 with a bridging column
    from gsc.diamond import diamond, generator_element
    from gsc.elements import RectElement, RectMonomial

    col = RectElement.monomial(RectMonomial.from_rows([[2], [1], [2]]))
    x = diamond(g, 4, generator_element(), col)
    res = quotient_reduce(x, 2, f.field, config=cfg)
    assert res.is_zero
    assert f.evaluate(x) == 0


def test_one_dimensional_proportionality(cfg):
    """On a rank-1 dual space the functional is its basis value times
    the reduction coordinate for every element."""
    rng = random.Random(3)
    from gsc.echelon import quotient_basis

    f = det_s2_functional()
    (q,) = quotient_basis(4, (3, 3), 2, f.field, config=cfg)
    fq = f.value_on_monomial(q)
    for _ in range(20):
        terms = {}
        from gsc.tensor import enumerate_block_monomials

        monos = enumerate_block_monomials(4, (3, 3))
        for _ in range(3):
            terms[monos[rng.randrange(len(monos))]] = rng.randint(-4, 4)
        x = TriElement(4, {m: c for m, c in terms.items() if c})
        res = quotient_reduce(x, 2, f.field, config=cfg)
        coord = Fraction(0)
        for blk in res.blocks:
            for _m, c in blk.coordinates:
                coord += c
        assert f.evaluate(x) == coord * fq


def test_functoriality_fixed_instances(cfg):
    assert induced_map_scalar([[1, 0], [0, 1]]) == 1
    assert induced_map_scalar([[2, 0], [0, 1]]) == 8
    assert induced_map_scalar([[0, 1], [1, 0]]) == -1


def test_functoriality_random_matrices(cfg):
    rng = random.Random(6)
    for _ in range(50):
        t = [
            [rng.randint(-5, 5), rng.randint(-5, 5)],
            [rng.randint(-5, 5), rng.randint(-5, 5)],
        ]
        assert induced_map_scalar(t) == det3(t)


def test_monomial_functional_values():
    assert monomial_functional(SPANNING_MONOMIAL) == 1
    assert monomial_functional(TriMonomial(4, (1, 1, 1, 1, 1, 1))) == 0
