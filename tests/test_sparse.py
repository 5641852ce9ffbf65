import random
from fractions import Fraction

import pytest

from gsc.errors import ResourceLimit
from gsc.fields import FieldSpec
from gsc.sparse import (
    SparseMatrix,
    rank_sparse,
    read_matrix_text,
    rref_sparse,
    write_matrix_text,
)

Q = FieldSpec.rational()
GF5 = FieldSpec.prime(5, allow_small=True)


def random_matrix(rng, rows, cols, field, lo=-20, hi=20):
    entries = []
    used = set()
    for _ in range(rng.randint(0, rows * cols)):
        r, c = rng.randrange(rows), rng.randrange(cols)
        if (r, c) in used:
            continue
        used.add((r, c))
        entries.append((r, c, rng.randint(lo, hi)))
    return SparseMatrix.from_entries(rows, cols, field, entries)


def test_empty_matrix_rank_zero():
    assert rank_sparse(SparseMatrix.from_entries(0, 0, Q, [])) == 0


def test_identity_rank_over_gf5():
    m = SparseMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]], GF5)
    assert rank_sparse(m) == 3


def test_three_identical_rows_rank_one():
    m = SparseMatrix.from_dense([[1, 1, 1]] * 3, Q)
    assert rank_sparse(m) == 1


def test_proportional_rows_rref():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]], Q)
    ech = rref_sparse(m)
    assert ech.rank == 1
    assert ech.pivot_cols == (0,)
    assert ech.reduced_rows == (((0, Fraction(1)), (1, Fraction(2))),)


def test_zero_matrix_rref():
    m = SparseMatrix.from_entries(4, 3, Q, [])
    ech = rref_sparse(m)
    assert ech.rank == 0 and ech.pivot_cols == ()


def test_duplicate_entry_rejected():
    with pytest.raises(ValueError):
        SparseMatrix.from_entries(1, 2, Q, [(0, 0, 1), (0, 0, 2)])


def test_stored_zeros_dropped():
    m = SparseMatrix.from_entries(1, 2, GF5, [(0, 0, 5), (0, 1, 3)])
    assert m.n_entries == 1


def test_rank_rref_agree_and_gfp_bounded_by_rational():
    rng = random.Random(11)
    for _ in range(1000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        mq = random_matrix(rng, rows, cols, Q)
        entries = [(r, c, v) for r, c, v in mq.iter_entries()]
        mp = SparseMatrix.from_entries(rows, cols, GF5, entries)
        rq = rank_sparse(mq)
        assert rref_sparse(mq).rank == rq
        assert rank_sparse(mp) <= rq
        assert rref_sparse(mp).rank == rank_sparse(mp)


def test_rref_reduce_vector_normal_form():
    m = SparseMatrix.from_dense([[1, 1, 0], [0, 1, 1]], Q)
    ech = rref_sparse(m)
    # v = row0 + row1 reduces to zero
    assert ech.reduce_vector({0: 1, 1: 2, 2: 1}) == {}
    residual = ech.reduce_vector({0: 1, 1: 0, 2: 0})
    assert set(residual) <= set(ech.non_pivot_cols())


def test_rational_resource_guard():
    m = SparseMatrix.from_entries(1, 10_001, Q, [(0, 0, 1)])
    with pytest.raises(ResourceLimit):
        rank_sparse(m)
    # explicit prime-field evidence is the sanctioned route
    mp = SparseMatrix.from_entries(1, 10_001, FieldSpec.prime(97), [(0, 0, 1)])
    assert rank_sparse(mp) == 1


def test_entry_budget_guard(monkeypatch):
    m = SparseMatrix.from_dense([[1, 2], [3, 4]], Q)
    monkeypatch.setattr("gsc.sparse.MAX_ENTRIES", 3)
    with pytest.raises(ResourceLimit):
        rank_sparse(m)


def test_text_format_round_trip_rational_and_prime():
    m = SparseMatrix.from_entries(
        2, 3, Q, [(0, 0, Fraction(1, 2)), (1, 2, -3)]
    )
    text = write_matrix_text(m)
    assert text == "2 3 0\n1 1 1/2\n2 3 -3\n0 0 0\n"
    back = read_matrix_text(text)
    assert back.rows == m.rows and back.field.is_rational

    mp = SparseMatrix.from_entries(1, 1, GF5, [(0, 0, 3)])
    tp = write_matrix_text(mp)
    assert tp.startswith("1 1 5\n")
    assert read_matrix_text(tp).rows == mp.rows


def test_text_format_requires_terminator():
    with pytest.raises(ValueError):
        read_matrix_text("1 1 0\n1 1 1\n")


def test_concurrent_rank_on_distinct_matrices():
    import threading

    rng = random.Random(41)
    matrices = [random_matrix(rng, 6, 6, Q) for _ in range(16)]
    expected = [rank_sparse(m) for m in matrices]
    got = [None] * len(matrices)

    def work(i):
        got[i] = rank_sparse(matrices[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(matrices))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == expected


def test_prime_field_refuses_wide_matrix():
    from gsc.sparse import MAX_PRIME_COLUMNS

    at_limit = SparseMatrix.from_entries(
        1, MAX_PRIME_COLUMNS, FieldSpec.prime(97), [(0, 0, 1)]
    )
    assert rank_sparse(at_limit) == 1
    m = SparseMatrix.from_entries(
        1, MAX_PRIME_COLUMNS + 1, FieldSpec.prime(97), [(0, 0, 1)]
    )
    with pytest.raises(ResourceLimit, match="streaming stretch path"):
        rank_sparse(m)
