import random

import pytest

from gsc.classical import WordElement, tensor_circ
from gsc.diamond import (
    check_gsc_axioms,
    diamond,
    diamond_monomial,
    random_tri_element,
    unit_element,
)
from gsc.errors import BadPosition, ShapeMismatch
from gsc.elements import RectElement, RectMonomial, TriElement
from gsc.tensor import TriMonomial, multidegree_of

A, B = 1, 2


def test_smallest_nontrivial_insertion():
    out = diamond_monomial(
        TriMonomial.generator(), 1, TriMonomial.generator(), RectMonomial.from_rows([[7]])
    )
    assert out.size == 2 and out.as_dict() == {(1, 2): 7}


def test_published_four_by_four_instance():
    x = TriMonomial.from_dict(3, {(1, 2): A, (1, 3): A, (2, 3): B})
    grid = RectMonomial.from_rows([[B], [A], [B]])
    out = diamond_monomial(x, 4, TriMonomial.generator(), grid)
    assert out.as_dict() == {
        (1, 2): A,
        (1, 3): A,
        (1, 4): B,
        (2, 3): B,
        (2, 4): A,
        (3, 4): B,
    }


def test_unit_laws():
    rng = random.Random(8)
    for _ in range(30):
        size = rng.randint(0, 3)
        x = random_tri_element(rng, size)
        m = size + 1
        for i in range(1, m + 1):
            assert diamond(x, i, unit_element(), RectElement.unit(m - 1, 0)) == x
        assert diamond(unit_element(), 1, x, RectElement.unit(0, m - 1)) == x


def test_shape_and_position_validation():
    x = TriElement.monomial(TriMonomial.generator())
    with pytest.raises(ShapeMismatch):
        diamond(x, 1, x, RectElement.unit(0, 0))
    grid = RectElement.monomial(RectMonomial.from_rows([[1]]))
    with pytest.raises(BadPosition):
        diamond(x, 3, x, grid)


def test_entry_multiset_conservation_and_size():
    rng = random.Random(31)
    for _ in range(100):
        sx, sy = rng.randint(0, 3), rng.randint(0, 3)
        m, n = sx + 1, sy + 1
        x = TriMonomial(sx, tuple(rng.randint(1, 3) for _ in range(sx * (sx - 1) // 2)))
        y = TriMonomial(sy, tuple(rng.randint(1, 3) for _ in range(sy * (sy - 1) // 2)))
        grid = RectMonomial(
            m - 1, n - 1, tuple(rng.randint(1, 3) for _ in range((m - 1) * (n - 1)))
        )
        i = rng.randint(1, m)
        out = diamond_monomial(x, i, y, grid)
        assert out.size == sx + sy
        combined = sorted(x.entries + y.entries + grid.entries)
        assert sorted(out.entries) == combined
        kx = multidegree_of(x, 3)
        ky = multidegree_of(y, 3)
        expected = tuple(
            kx[t] + ky[t] + sum(1 for e in grid.entries if e == t + 1) for t in range(3)
        )
        assert multidegree_of(out, 3) == expected


def test_coherence_suite_500_trials():
    rep = check_gsc_axioms(500, 42)
    assert rep.passed, rep.summary()
    assert rep.checked == 1881  # pins the sampling order


def test_trivial_grid_degeneration_reduces_to_word_operad():
    """With no grid data the coherence identities are the word-insertion
    associativity laws; check the two formulations agree on random words."""
    rng = random.Random(5)
    for _ in range(200):
        m, n, p = (rng.randint(1, 4) for _ in range(3))
        x = WordElement.word(tuple(rng.randint(1, 3) for _ in range(m - 1)))
        y = WordElement.word(tuple(rng.randint(1, 3) for _ in range(n - 1)))
        z = WordElement.word(tuple(rng.randint(1, 3) for _ in range(p - 1)))
        if m >= 2:
            j = rng.randint(2, m)
            i = rng.randint(1, j - 1)
            lhs = tensor_circ(tensor_circ(x, j, z), i, y)
            rhs = tensor_circ(tensor_circ(x, i, y), n + j - 1, z)
            assert lhs == rhs
        i = rng.randint(1, m)
        j = rng.randint(1, n)
        assert tensor_circ(tensor_circ(x, i, y), i + j - 1, z) == tensor_circ(
            x, i, tensor_circ(y, j, z)
        )


def test_mutated_transpose_fails_coherence():
    from gsc.criteria import _mutated_transpose

    rep = check_gsc_axioms(300, 42, transpose_fn=_mutated_transpose)
    assert not rep.passed
    assert any(f.law == "coherence-I" for f in rep.failures)


def test_trilinearity():
    rng = random.Random(77)
    x1 = random_tri_element(rng, 2)
    x2 = random_tri_element(rng, 2)
    y = random_tri_element(rng, 1)
    from gsc.bioperad import random_rect_element

    grid = random_rect_element(rng, 2, 1)
    lhs = diamond(x1 + x2, 2, y, grid)
    assert lhs == diamond(x1, 2, y, grid) + diamond(x2, 2, y, grid)
    assert diamond(3 * x1, 2, y, grid) == 3 * diamond(x1, 2, y, grid)
