import random
from fractions import Fraction

import pytest

from gsc.errors import ResourceLimit
from gsc.fields import FieldSpec
from gsc.sparse import (
    SparseMatrix,
    _sparse_eliminate,
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


def reference_rref(dense):
    """Dense Gauss-Jordan over Q: the RREF rows, sparse, in pivot order."""
    rows = [[Fraction(x) for x in r] for r in dense]
    done = []
    for c in range(len(dense[0]) if dense else 0):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[c] for x in pivot]
        rows = [[x - r[c] * y for x, y in zip(r, pivot)] for r in rows]
        done = [[x - r[c] * y for x, y in zip(r, pivot)] for r in done]
        done.append(pivot)
    return tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in done)


def random_rational_dense(rng, rows, cols):
    """Entries in -20..20 with some Fraction(a, b), b <= 4; some rows dependent."""

    def entry():
        if rng.random() < rng.choice((0.3, 0.7)):
            return 0
        if rng.random() < 0.25:
            return Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        return rng.randint(-20, 20)

    dense = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 0.5:
        a, b = rng.sample(dense, 2)
        s, t = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        dense[rng.randrange(rows)] = [s * x + t * y for x, y in zip(a, b)]
    return dense


def test_rational_elimination_matches_dense_reference():
    rng = random.Random(20)
    for _ in range(600):
        dense = random_rational_dense(rng, rng.randint(1, 8), rng.randint(1, 8))
        m = SparseMatrix.from_dense(dense, Q)
        want = reference_rref(dense)
        assert rank_sparse(m) == len(want), dense
        assert rref_sparse(m).reduced_rows == want, dense
        # the forward pass runs on integers only
        _, pivot_rows = _sparse_eliminate(m, want_reduced=False)
        assert all(type(x) is int for row in pivot_rows for x in row.values()), dense


def test_rational_forward_rows_are_fraction_free_and_scaled_rows_primitive():
    # pivot 2 does not divide 1: row 1 becomes 2*row1 - row0 = (0, 3, 3),
    # whose content 3 is divided out
    m = SparseMatrix.from_dense([[2, 1, 1], [1, 2, 2]], Q)
    assert _sparse_eliminate(m, want_reduced=False) == ([0, 1], [{0: 2, 1: 1, 2: 1}, {1: 1, 2: 1}])
    # a row with denominators enters as a primitive integer row; a pivot
    # that divides the entry is a plain subtraction: (4, 5) - 2*(2, -3)
    m = SparseMatrix.from_dense([[Fraction(1, 2), Fraction(-3, 4)], [4, 5]], Q)
    assert _sparse_eliminate(m, want_reduced=False) == ([0, 1], [{0: 2, 1: -3}, {1: 11}])


def test_rref_reduce_vector_normal_form():
    m = SparseMatrix.from_dense([[1, 1, 0], [0, 1, 1]], Q)
    ech = rref_sparse(m)
    # v = row0 + row1 reduces to zero
    assert ech.reduce_vector({0: 1, 1: 2, 2: 1}) == {}
    residual = ech.reduce_vector({0: 1, 1: 0, 2: 0})
    assert set(residual) <= set(ech.non_pivot_cols())


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


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(97)], ids=str)
def test_prime_field_refuses_wide_matrix(field):
    # one column limit for every field
    from gsc.sparse import MAX_COLUMNS

    at_limit = SparseMatrix.from_entries(1, MAX_COLUMNS, field, [(0, 0, 1)])
    assert rank_sparse(at_limit) == 1
    m = SparseMatrix.from_entries(1, MAX_COLUMNS + 1, field, [(0, 0, 1)])
    with pytest.raises(ResourceLimit, match="streaming stretch path"):
        rank_sparse(m)
