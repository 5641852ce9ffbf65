import random

import pytest

from gsc.bioperad import (
    check_bioperad_laws,
    col_compose,
    random_rect_element,
    row_compose,
    transpose,
)
from gsc.errors import BadPosition, ShapeMismatch
from gsc.elements import RectElement, RectMonomial


def mono(rows):
    return RectElement.monomial(RectMonomial.from_rows(rows))


def test_row_compose_single_entries():
    # two one-entry columns: inserting at slot 1 stacks the second on top
    a = mono([[5]])
    c = mono([[7]])
    out = row_compose(a, 1, c)
    assert out.terms == {RectMonomial.from_rows([[7], [5]]): 1}
    out2 = row_compose(a, 2, c)
    assert out2.terms == {RectMonomial.from_rows([[5], [7]]): 1}


def test_row_compose_with_empty_unit():
    a = mono([[1, 2], [3, 1]])
    unit = RectElement.unit(0, 2)
    for i in (1, 2, 3):
        assert row_compose(a, i, unit) == a


def test_row_compose_associativity_column_stack():
    u, v, w = mono([[1]]), mono([[2]]), mono([[3]])
    lhs = row_compose(row_compose(u, 1, v), 1, w)
    rhs = row_compose(u, 1, row_compose(v, 1, w))
    assert lhs == rhs
    assert lhs.terms == {RectMonomial.from_rows([[3], [2], [1]]): 1}


def test_col_compose_single_entries():
    a = mono([[5]])
    b = mono([[7]])
    out = col_compose(a, 1, b)
    assert out.terms == {RectMonomial.from_rows([[7, 5]]): 1}


def test_col_compose_with_empty_unit():
    a = mono([[1, 2], [3, 1]])
    unit = RectElement.unit(2, 0)
    for i in (1, 2, 3):
        assert col_compose(a, i, unit) == a


def test_shape_mismatch_and_position_errors():
    with pytest.raises(ShapeMismatch):
        row_compose(mono([[1, 2]]), 1, mono([[1]]))
    with pytest.raises(ShapeMismatch):
        col_compose(mono([[1], [2]]), 1, mono([[1]]))
    with pytest.raises(BadPosition):
        row_compose(mono([[1]]), 3, mono([[2]]))


def test_transpose_involution_and_shape():
    rng = random.Random(4)
    for _ in range(50):
        a = random_rect_element(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert transpose(transpose(a)) == a
    row = mono([[1, 2, 3]])
    assert transpose(row).terms == {RectMonomial.from_rows([[1], [2], [3]]): 1}
    unit = RectElement.unit(0, 0)
    assert transpose(unit) == unit


def test_transpose_duality_on_random_instance():
    rng = random.Random(12)
    a = random_rect_element(rng, 1, 1)
    c = random_rect_element(rng, 1, 1)
    assert transpose(row_compose(a, 1, c)) == col_compose(transpose(a), 1, transpose(c))


def test_output_shapes():
    a = mono([[1, 2], [2, 1]])  # grading (3, 3)
    c = mono([[3, 3], [1, 1], [2, 2]])  # grading (4, 3)
    out = row_compose(a, 2, c)
    assert (out.rows, out.cols) == (5, 2)  # grading (6, 3)
    b = mono([[1], [2]])  # grading (3, 2)
    out2 = col_compose(a, 1, b)
    assert (out2.rows, out2.cols) == (2, 3)  # grading (3, 4)


def test_law_suite_500_trials():
    rep = check_bioperad_laws(500, 42)
    assert rep.passed, rep.summary()
    assert rep.checked == 5218  # pins the sampling order


def test_degenerate_shapes_hold_vacuously():
    # all-empty grids: every law reduces to bookkeeping on units
    rep = check_bioperad_laws(50, 3, d=1)
    assert rep.passed


def test_mutated_splice_fails():
    from gsc.criteria import _mutated_row_compose

    rep = check_bioperad_laws(300, 42, row_compose_fn=_mutated_row_compose)
    assert not rep.passed
    assert rep.witness() is not None
