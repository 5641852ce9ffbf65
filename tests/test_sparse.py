import hashlib
import random
from fractions import Fraction

import pytest

import gsc.sparse
from gsc import cache
from gsc.echelon import EchelonForm, echelon_sparse
from gsc.errors import ResourceLimit
from gsc.fields import FieldSpec
from gsc.matrix_text import read_matrix_text, write_matrix_text
from gsc.quotient import block_pruned
from gsc.relations import assemble_relation_block
from gsc.sparse import (
    SparseMatrix,
    _primitive_row,
    _SignedUnionFind,
    _sparse_eliminate,
    rank_sparse,
)
from gsc.tensor import multidegrees, n_triangle_entries

Q = FieldSpec.rational()
GF5 = FieldSpec.prime(5)


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
    ech = echelon_sparse(m)
    assert ech.rank == 1
    assert ech.pivot_cols == (0,)
    assert ech.rows == (((0, 1), (1, 2)),)


def test_zero_matrix_rref():
    m = SparseMatrix.from_entries(4, 3, Q, [])
    ech = echelon_sparse(m)
    assert ech.rank == 0 and ech.pivot_cols == ()


def test_duplicate_entry_rejected():
    with pytest.raises(ValueError):
        SparseMatrix.from_entries(1, 2, Q, [(0, 0, 1), (0, 0, 2)])


def test_stored_zeros_dropped():
    m = SparseMatrix.from_entries(1, 2, GF5, [(0, 0, 5), (0, 1, 3)])
    assert m.n_entries == 1


def test_rank_and_echelon_agree_and_gfp_bounded_by_rational():
    rng = random.Random(11)
    for _ in range(1000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        mq = random_matrix(rng, rows, cols, Q)
        entries = [(r, c, v) for r, c, v in mq.iter_entries()]
        mp = SparseMatrix.from_entries(rows, cols, GF5, entries)
        rq = rank_sparse(mq)
        assert echelon_sparse(mq).rank == rq
        assert rank_sparse(mp) <= rq
        assert echelon_sparse(mp).rank == rank_sparse(mp)


def reference_rref(dense, field=Q):
    """Dense Gauss-Jordan: the RREF rows, sparse, in pivot order."""
    p = field.p
    rows = [[field.convert(x) for x in r] for r in dense]
    done = []
    for c in range(len(dense[0]) if dense else 0):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[c], p - 2, p) if p else 1 / pivot[c]
        pivot = [field.mul(x, inv) for x in pivot]
        rows = [[field.sub(x, field.mul(r[c], y)) for x, y in zip(r, pivot)] for r in rows]
        done = [[field.sub(x, field.mul(r[c], y)) for x, y in zip(r, pivot)] for r in done]
        done.append(pivot)
    return tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in done)


def reference_residual(rref_rows, vec, field):
    """``vec`` minus its component along each RREF row's pivot."""
    out = {c: field.convert(v) for c, v in vec.items()}
    for row in rref_rows:
        a = out.get(row[0][0], 0)
        for c, v in row:
            out[c] = field.sub(out.get(c, 0), field.mul(a, v))
    return {c: v for c, v in out.items() if v}


def random_vector(rng, cols):
    return {c: rng.randint(-9, 9) for c in range(cols) if rng.random() < 0.6}


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
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        dense = random_rational_dense(rng, rows, cols)
        m = SparseMatrix.from_dense(dense, Q)
        want = reference_rref(dense)
        assert rank_sparse(m) == len(want), dense
        ech = echelon_sparse(m)
        assert ech.pivot_cols == tuple(row[0][0] for row in want), dense
        for _ in range(3):
            vec = random_vector(rng, cols)
            assert ech.reduce_vector(vec) == reference_residual(want, vec, Q), (dense, vec)
        # the forward pass runs on integers only
        assert all(type(x) is int for row in ech.rows for _, x in row), dense


def test_prime_field_echelon_matches_dense_reference():
    rng = random.Random(21)
    for p in (5, 97):
        field = FieldSpec.prime(p)
        for _ in range(300):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            dense = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
            m = SparseMatrix.from_dense(dense, field)
            want = reference_rref(dense, field)
            assert rank_sparse(m) == len(want), dense
            ech = echelon_sparse(m)
            assert ech.pivot_cols == tuple(row[0][0] for row in want), dense
            assert all(row[0][1] == 1 for row in ech.rows), dense
            for _ in range(3):
                vec = random_vector(rng, cols)
                assert ech.reduce_vector(vec) == reference_residual(want, vec, field), (dense, vec)


def test_short_random_rows_match_dense_reference(monkeypatch):
    # rows of 1-3 nonzeros are what the peel eats: kills, merges with
    # non-unit and Fraction scales, and chains deep enough that the
    # reducers call find; the rank must still be the dense reference's
    seen = {}
    find, merge = _SignedUnionFind.find, _SignedUnionFind.merge

    def spy_find(uf, c):
        seen["find"] += 1
        return find(uf, c)

    def spy_merge(uf, r1, v1, r2, v2):
        merge(uf, r1, v1, r2, v2)
        scale = uf.scale[r1]
        seen["fraction"] += type(scale) is Fraction
        seen["non-unit"] += scale not in ((1, -1) if uf.p is None else (1, uf.p - 1))

    monkeypatch.setattr(_SignedUnionFind, "find", spy_find)
    monkeypatch.setattr(_SignedUnionFind, "merge", spy_merge)
    rng = random.Random(23)

    def entry(field):
        if field.is_rational and rng.random() < 0.3:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 5))
        return rng.choice((-1, 1)) * rng.randint(1, 9)

    for field in (Q, GF5, FieldSpec.prime(97)):
        seen.update({"find": 0, "fraction": 0, "non-unit": 0})
        for _ in range(60):
            rows, cols = rng.randint(1, 45), rng.randint(1, 40)
            dense = [[0] * cols for _ in range(rows)]
            for row in dense:
                for c in rng.sample(range(cols), rng.randint(1, min(3, cols))):
                    row[c] = entry(field)
            m = SparseMatrix.from_dense(dense, field)
            want = reference_rref(dense, field)
            assert rank_sparse(m) == len(want), dense
            assert echelon_sparse(m).rank == len(want), dense
        assert seen["find"] and seen["non-unit"], (field, seen)
        assert seen["fraction"] or not field.is_rational, seen


def tables_blocks():
    """Every non-pruned sorted-type block of d = 2 and 3 at arities 1-6."""
    for d in (2, 3):
        for n in range(6):
            for k in multidegrees(n_triangle_entries(n), d):
                if list(k) == sorted(k, reverse=True) and not block_pruned(n, k):
                    yield n, k, d


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(1_000_003)], ids=str)
def test_peeled_rank_matches_markowitz_echelon_on_table_blocks(field):
    # two routes that share no code: the peel plus a Markowitz core, and
    # Markowitz elimination of the whole matrix
    blocks = list(tables_blocks())
    assert len(blocks) == 15
    for n, k, d in blocks:
        m = assemble_relation_block(n, k, d, field).matrix
        assert rank_sparse(m) == echelon_sparse(m).rank, (n, k, d)


ECHELON_DIGESTS = {
    "Q": "c129104f39fd7f7afaaf83af26ed5537edaa32f5421e55b25186960dc6fcdb10",
    "GF(1000003)": "2d2dac890db20236e63246aafda8bf9410d107a8a351c182f8b7ce17fac4e5c8",
}


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(1_000_003)], ids=str)
def test_table_block_echelon_forms_are_pinned(field):
    # the disk cache trusts a stored echelon.mtx across every version with
    # the same cache.SCHEMA_VERSION, so a change to the forms elimination
    # gives must fail here and bump the schema along with this digest
    assert cache.SCHEMA_VERSION == 3
    h = hashlib.sha256()
    for n, k, d in tables_blocks():
        ech = echelon_sparse(assemble_relation_block(n, k, d, field).matrix)
        h.update(repr((ech.pivot_cols, ech.rows)).encode())
    assert h.hexdigest() == ECHELON_DIGESTS[str(field)]


def test_rank_eliminates_only_the_core_the_peel_leaves(monkeypatch):
    # the core rows are those of the stretch run on the same blocks
    # (StretchReport.core_rows, pinned in test_stretch.py); a rank that
    # eliminated the whole matrix would show every relation row here
    seen = []
    eliminate = gsc.sparse._sparse_eliminate

    def spy_eliminate(rows, p):
        seen.append(len(rows))
        return eliminate(rows, p)

    monkeypatch.setattr(gsc.sparse, "_sparse_eliminate", spy_eliminate)
    for k, core_rows, rank in (((4, 4, 2), 80, 3144), ((4, 3, 3), 2060, 4184)):
        seen.clear()
        m = assemble_relation_block(5, k, 3, Q).matrix
        assert rank_sparse(m) == rank
        assert seen == [core_rows], k


def test_rational_forward_rows_are_fraction_free_and_scaled_rows_primitive():
    # pivot 2 does not divide 1: row 1 becomes 2*row1 - row0 = (0, 3, 3),
    # whose content 3 is divided out
    m = SparseMatrix.from_dense([[2, 1, 1], [1, 2, 2]], Q)
    assert _sparse_eliminate(m.rows, None) == ([0, 1], [{0: 2, 1: 1, 2: 1}, {1: 1, 2: 1}])
    # a row with denominators enters as a primitive integer row; a pivot
    # that divides the entry is a plain subtraction: (4, 5) - 2*(2, -3)
    m = SparseMatrix.from_dense([[Fraction(1, 2), Fraction(-3, 4)], [4, 5]], Q)
    assert _sparse_eliminate(m.rows, None) == ([0, 1], [{0: 2, 1: -3}, {1: 11}])


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(1_000_003)], ids=str)
@pytest.mark.parametrize("k", [(2, 2, 2), (3, 2, 1)], ids=str)
def test_relation_block_echelon_matches_dense_reference(field, k):
    # unit relation rows take the unit-pivot paths, including pivots -1
    # and pivot rows with one entry; the dense Fraction elimination has
    # the same pivot columns and the same residuals
    m = assemble_relation_block(4, k, 3, field).matrix
    dense = [[0] * m.n_cols for _ in range(m.n_rows)]
    for r, c, v in m.iter_entries():
        dense[r][c] = Fraction(v)
    want = reference_rref(dense, field)
    ech = echelon_sparse(m)
    assert ech.pivot_cols == tuple(row[0][0] for row in want)
    rng = random.Random(13)
    vectors = [{c: 1} for c in range(m.n_cols)] + [random_vector(rng, m.n_cols) for _ in range(20)]
    for vec in vectors:
        assert ech.reduce_vector(vec) == reference_residual(want, vec, field), vec


def test_unit_matrices_match_dense_reference():
    # entries in {-1, 0, 1}: mostly unit pivots, with cancellations that
    # empty a column and fill it again.  In the first matrix column 2
    # loses its one row to the first pivot and is filled again, so it is
    # queued twice; each one-entry pivot must leave its column empty
    rng = random.Random(22)
    for field in (Q, GF5):
        first = [[-1, 0, 1], [1, 1, 0], [0, -1, 0], [1, -1, 0]]
        for i in range(400):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            dense = [[rng.choice((-1, 0, 0, 1)) for _ in range(cols)] for _ in range(rows)]
            dense = dense if i else first
            want = reference_rref(dense, field)
            ech = echelon_sparse(SparseMatrix.from_dense(dense, field))
            assert ech.pivot_cols == tuple(row[0][0] for row in want), dense
            vec = random_vector(rng, cols)
            assert ech.reduce_vector(vec) == reference_residual(want, vec, field), (dense, vec)


def test_primitive_row_int_and_fraction_rows():
    # a row of ints is only divided by its content
    assert _primitive_row(((0, 2), (3, 4))) == {0: 1, 3: 2}
    assert _primitive_row(((1, 1), (2, -1))) == {1: 1, 2: -1}
    # a row with a Fraction is cleared of denominators first:
    # 4 * (1/2, 3, -3/4) = (2, 12, -3)
    got = _primitive_row(((0, Fraction(1, 2)), (1, 3), (4, Fraction(-3, 4))))
    assert got == {0: 2, 1: 12, 4: -3}
    got = _primitive_row(((0, 4), (5, Fraction(6))))
    assert got == {0: 2, 5: 3}
    assert all(type(x) is int for x in got.values())


def test_echelon_reduce_vector_normal_form():
    m = SparseMatrix.from_dense([[1, 1, 0], [0, 1, 1]], Q)
    ech = echelon_sparse(m)
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
def test_one_column_limit_refuses_wide_matrix(field):
    from gsc.sparse import MAX_COLUMNS

    at_limit = SparseMatrix.from_entries(1, MAX_COLUMNS, field, [(0, 0, 1)])
    assert rank_sparse(at_limit) == 1
    m = SparseMatrix.from_entries(1, MAX_COLUMNS + 1, field, [(0, 0, 1)])
    with pytest.raises(ResourceLimit, match="streaming stretch path"):
        rank_sparse(m)


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(1_000_003)], ids=str)
def test_reduced_echelon_rows_give_the_same_normal_forms(tmp_path, field):
    # a reduced echelon form, as an earlier version stored it in the cache,
    # is a forward echelon with pivot 1: its normal forms are the same, so
    # the cache schema stays
    assert cache.SCHEMA_VERSION == 3
    m = assemble_relation_block(4, (2, 2, 2), 3, field).matrix
    dense = [[0] * m.n_cols for _ in range(m.n_rows)]
    for r, c, v in m.iter_entries():
        dense[r][c] = v
    rref = reference_rref(dense, field)
    ech = echelon_sparse(m)
    assert ech.rows != rref  # the forward echelon is not reduced here
    store = cache.BlockCache(tmp_path)
    store.store_echelon(3, 4, (2, 2, 2), field, EchelonForm(m.n_cols, field, ech.pivot_cols, rref))
    stored = store.load_echelon(3, 4, (2, 2, 2), field)
    assert stored.rows == rref
    rng = random.Random(5)
    vectors = [{c: 1} for c in range(m.n_cols)] + [random_vector(rng, m.n_cols) for _ in range(20)]
    for vec in vectors:
        assert stored.reduce_vector(vec) == ech.reduce_vector(vec), vec
