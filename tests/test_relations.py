from fractions import Fraction

import numpy as np
import pytest

from gsc.errors import DegreeMismatch
from gsc.fields import FieldSpec
from gsc.quotient import block_pruned
from gsc.relations import (
    TriangleRelation,
    _fill_counts,
    _occupant_multisets,
    _triangle_relations,
    assemble_relation_block,
    block_row_count,
    block_rows,
    iter_block_relations,
    relation_generators,
)
from gsc.matrix_text import write_block_matrix_text, write_matrix_text
from gsc.tensor import (
    TriMonomial,
    enumerate_block_monomials,
    multidegree_of,
    multidegrees,
    n_triangle_entries,
    count_block_monomials,
    rank_in_block,
    word_array,
)

Q = FieldSpec.rational()


def as_monomials(n, k, rows):
    """Integer rows mapped back to the block's monomials."""
    monos = enumerate_block_monomials(n, k)
    return [tuple(monos[c] for c in row) for row in rows]


def reference_rows(n, k, d):
    """The rows built the readable way: relation objects, scalar ranks."""
    return [
        tuple(sorted(rank_in_block(m.entries, k) for m in rel.monomials()))
        for rel in _triangle_relations(n, k, d)
    ]


@pytest.mark.parametrize("n,d", [(n, d) for n in (3, 4, 5) for d in (1, 2, 3)])
def test_integer_rows_match_reference_model_on_every_block(n, d):
    # n = 3 has an empty fill; d = 3 at n = 3, 4 has zero letter counts
    for k in multidegrees(n_triangle_entries(n), d):
        assert list(iter_block_relations(n, k, d)) == reference_rows(n, k, d), k


@pytest.mark.parametrize(
    "n,k,d", [(6, (10, 4, 1), 3), (4, (2, 2, 1, 1), 4), (4, (4, 2, 0), 3), (3, (2, 1, 0), 3)]
)
def test_integer_rows_match_reference_model(n, k, d):
    rows = list(iter_block_relations(n, k, d))
    assert rows and rows == reference_rows(n, k, d)
    assert len(rows) == block_row_count(n, k, d)


# the 15 non-pruned blocks of the d = 2 and d = 3 tables, arities 1-6
TABLE_BLOCKS = [
    (n, k, d)
    for d in (2, 3)
    for n in range(6)
    for k in multidegrees(n_triangle_entries(n), d)
    if list(k) == sorted(k, reverse=True) and not block_pruned(n, k)
]


@pytest.mark.parametrize("n,k,d", TABLE_BLOCKS + [(6, (10, 4, 1), 3)])
def test_occupant_groups_and_dead_mask_select_rows(n, k, d):
    rows = list(iter_block_relations(n, k, d))
    # a row has one column per distinct arrangement of its multiset, so the
    # multisets of 1, 2 and 3 distinct letters split the rows by length;
    # each restricted call keeps the default order
    grouped = []
    for letters, length in ((1, 1), (2, 3), (3, 6)):
        group = [occ for occ in _occupant_multisets(d) if len(set(occ)) == letters]
        got = list(iter_block_relations(n, k, d, occupants=group))
        assert got == [r for r in rows if len(r) == length], (letters, k)
        grouped += got
    assert sorted(grouped) == sorted(rows)

    # exactly the rows whose columns are all marked are dropped; rows with
    # some columns marked and some not are kept
    dead = (np.arange(count_block_monomials(n, k)) % 3 != 0).astype(np.uint8)
    assert list(iter_block_relations(n, k, d, dead=dead)) == [
        r for r in rows if not all(dead[c] for c in r)
    ]
    if any(len(r) > 1 for r in rows):
        assert any(0 < sum(dead[c] for c in r) < len(r) for r in rows)

    # the mask is read at each (triple, multiset) batch: marking every
    # column after the first row ends the stream with the first batch
    fills = (_fill_counts(k, occ) for occ in _occupant_multisets(d))
    batch = next((len(word_array(r)) for r in fills if r is not None), 0)
    dead[:] = 0
    got = []
    for row in iter_block_relations(n, k, d, dead=dead):
        got.append(row)
        dead[:] = 1
    assert got == rows[:batch]


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(1_000_003)])
@pytest.mark.parametrize("n,k,d", [(3, (2, 1), 2), (4, (3, 2, 1), 3), (5, (4, 4, 2), 3)])
def test_streamed_export_matches_in_memory_text(tmp_path, field, n, k, d):
    path = tmp_path / "block.txt"
    shape = write_block_matrix_text(n, k, d, field, path)
    blk = assemble_relation_block(n, k, d, field)
    assert shape == (blk.n_rows, blk.n_monomials)
    assert path.read_bytes() == write_matrix_text(blk.matrix).encode()


def test_single_letter_block_has_one_singleton_row():
    rows = block_rows(3, (3,), 1)
    assert as_monomials(3, (3,), rows) == [(TriMonomial(3, (1, 1, 1)),)]
    assert relation_generators(3, 1)[0].occupants == (1, 1, 1)


def test_distinct_letters_block_is_one_six_term_row():
    rows = as_monomials(3, (1, 1, 1), block_rows(3, (1, 1, 1), 3))
    assert len(rows) == 1
    assert len(rows[0]) == 6
    assert {m.entries for m in rows[0]} == {
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)
    }


def test_pair_block_is_one_three_term_row():
    rows = block_rows(3, (2, 1), 2)
    assert len(rows) == 1 and len(rows[0]) == 3


def test_no_relations_below_size_three():
    assert relation_generators(2, 3) == []
    assert block_rows(2, (1, 0), 2) == []


def test_row_term_counts_and_coefficients():
    # every row sums distinct arrangements with unit coefficients
    for k in ((3, 3), (4, 2), (2, 4)):
        for row in as_monomials(4, k, block_rows(4, k, 2)):
            assert len(row) in (1, 3, 6)
            assert all(multidegree_of(m, 2) == k for m in row)


def test_rows_stay_within_one_block():
    for row in as_monomials(4, (3, 2, 1), iter_block_relations(4, (3, 2, 1), 3)):
        degs = {multidegree_of(m, 3) for m in row}
        assert degs == {(3, 2, 1)}


def test_arity5_two_letter_block_counts():
    rows = block_rows(4, (3, 3), 2)
    assert len(rows) == 32
    assert block_row_count(4, (3, 3), 2) == 32
    blk = assemble_relation_block(4, (3, 3), 2, Q)
    assert blk.matrix.n_rows == 32 and blk.matrix.n_cols == 20


def test_dedup_collapses_repeated_singletons():
    # six-entry monomial of a single letter arises from all four triples
    rows = block_rows(4, (6,), 1)
    singletons = [r for r in rows if len(r) == 1]
    assert len({r[0] for r in singletons}) == len(singletons)
    assert block_row_count(4, (6,), 1) > len(rows)


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        block_rows(3, (1, 1), 2)
    with pytest.raises(DegreeMismatch):
        assemble_relation_block(3, (4,), 1, Q)


@pytest.mark.parametrize("fn", [block_row_count, block_rows])
def test_negative_letter_count_is_named(fn):
    # (-1, 7) sums to 6, the entry count of a size-4 triangle
    with pytest.raises(DegreeMismatch, match=r"negative letter count -1"):
        fn(4, (-1, 7), 2)


def test_triangle_relation_arrangements():
    rel = TriangleRelation(
        size=3, triple=(1, 2, 3), occupants=(1, 1, 2), fill=()
    )
    row = rel.monomials()
    assert len(row) == 3
    assert rel.triangle_slots() == ((1, 2), (1, 3), (2, 3))


def test_assembly_is_deterministic():
    a = assemble_relation_block(4, (3, 2, 1), 3, Q)
    b = assemble_relation_block(4, (3, 2, 1), 3, Q)
    assert a.matrix.rows == b.matrix.rows
    assert a.monomials == b.monomials


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(5), FieldSpec.prime(1_000_003)], ids=str)
def test_assembled_entries_are_the_int_one(field):
    # 1 is the unit of every field: over Q it equals Fraction(1)
    m = assemble_relation_block(4, (3, 2, 1), 3, field).matrix
    values = [v for _, _, v in m.iter_entries()]
    assert values and all(type(v) is int and v == 1 for v in values)
    assert values[0] == field.one() == Fraction(1)
