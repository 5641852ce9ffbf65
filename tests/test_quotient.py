import random
from fractions import Fraction

import pytest

from gsc.echelon import (
    block_echelon,
    lift_two_alternating,
    quotient_basis,
    quotient_reduce,
    repeated_letter_vanishing_check,
)
from gsc.elements import TriElement, expand_multilinear
from gsc.errors import NotTwoAlternating
from gsc.fields import FieldSpec
from gsc.quotient import QuotientConfig, block_dimension, clear_memory_cache, total_dimension
from gsc.relations import block_rows
from gsc.tensor import TriMonomial, enumerate_block_monomials, triangle_positions

Q = FieldSpec.rational()


@pytest.fixture()
def cfg(tmp_path):
    clear_memory_cache()
    return QuotientConfig(cache_dir=tmp_path / "cache")


def test_dim1_totals(cfg):
    assert [total_dimension(m, 1, Q, config=cfg).total for m in range(1, 5)] == [1, 1, 1, 0]


def test_dim2_totals(cfg):
    dims = [total_dimension(m, 2, Q, config=cfg).total for m in range(1, 7)]
    assert dims == [1, 1, 2, 4, 1, 0]


def test_dim2_blocks(cfg):
    assert block_dimension(3, (2, 1), 2, Q, config=cfg).dimension == 2
    assert block_dimension(3, (1, 2), 2, Q, config=cfg).dimension == 2
    rep = block_dimension(4, (3, 3), 2, Q, config=cfg)
    assert (rep.n_monomials, rep.n_rows, rep.rank, rep.dimension) == (20, 32, 19, 1)


def test_dim3_small_blocks(cfg):
    expected = {
        (2, (1, 0, 0)): 1,
        (3, (2, 1, 0)): 2,
        (3, (1, 1, 1)): 5,
        (4, (3, 3, 0)): 1,
        (4, (3, 2, 1)): 9,
        (4, (2, 2, 2)): 22,
    }
    for (n, k), dim in expected.items():
        assert block_dimension(n, k, 3, Q, config=cfg).dimension == dim


def test_block_permutation_symmetry(cfg):
    for perm in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2)):
        assert block_dimension(4, perm, 3, Q, config=cfg).dimension == 9


def test_pruned_blocks_report_zero_without_rows(cfg):
    rep = block_dimension(4, (6, 0), 2, Q, config=cfg)
    assert rep.pruned and rep.dimension == 0 and rep.n_rows == 0
    no_shortcut = QuotientConfig(cache_dir=cfg.cache_dir, no_shortcut=True)
    rep2 = block_dimension(4, (6, 0), 2, Q, config=no_shortcut)
    assert not rep2.pruned and rep2.dimension == 0 and rep2.n_rows > 0


def test_vanishing_beyond_bound_is_computed_not_assumed(cfg):
    no_shortcut = QuotientConfig(cache_dir=cfg.cache_dir, no_shortcut=True)
    for d, m in ((1, 4), (1, 5), (2, 6)):
        res = total_dimension(m, d, Q, config=no_shortcut)
        assert res.total == 0
        assert all(b.dimension == 0 for b in res.blocks)


def test_shortcut_skips_high_arity(cfg):
    res = total_dimension(8, 2, Q, config=cfg)
    assert res.total == 0 and res.shortcut_zero and res.blocks == ()


def test_disk_cache_round_trip(tmp_path):
    clear_memory_cache()
    cfg1 = QuotientConfig(cache_dir=tmp_path / "c")
    rep1 = block_dimension(4, (3, 3), 2, Q, config=cfg1)
    clear_memory_cache()
    rep2 = block_dimension(4, (3, 3), 2, Q, config=cfg1)
    assert rep1 == rep2  # warm rerun identical, including millis


def test_quotient_basis_and_reduce_spanning_monomial(cfg):
    basis = quotient_basis(4, (3, 3), 2, Q, config=cfg)
    assert [m.entries for m in basis] == [(2, 2, 1, 1, 2, 1)]
    spanning = TriMonomial(4, (1, 2, 2, 1, 2, 1))
    res = quotient_reduce(TriElement.monomial(spanning), 2, Q, config=cfg)
    assert not res.is_zero
    ((k, coords),) = [(b.k, b.coordinates) for b in res.blocks]
    assert k == (3, 3)
    # the normal-form coordinate is -1 on the echelon basis monomial;
    # cross-checked by the determinant functional, which takes value 1
    # on the spanning monomial and -1 on the basis monomial
    assert coords == ((basis[0], Fraction(-1)),)


def test_generator_expansion_reduces_to_zero(cfg):
    rng = random.Random(2)
    for _ in range(10):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        g = expand_multilinear(3, {p: v for p in triangle_positions(3)}, 2)
        res = quotient_reduce(g, 2, Q, config=cfg)
        assert res.is_zero


def test_reduce_repeated_letter_monomial_zero(cfg):
    m = TriMonomial(4, (1, 1, 1, 1, 2, 2))
    assert quotient_reduce(TriElement.monomial(m), 2, Q, config=cfg).is_zero


def test_closure_under_diamond(cfg):
    """Relation rows pushed through diamond insertions stay relations."""
    from gsc.bioperad import random_rect_element
    from gsc.diamond import diamond, random_tri_element

    rng = random.Random(13)
    rows = [
        tuple(monos[c] for c in row)
        for k in ((2, 1), (1, 2), (3, 0))
        for monos in [enumerate_block_monomials(3, k)]
        for row in block_rows(3, k, 2)
    ]
    for _ in range(40):
        row = rows[rng.randrange(len(rows))]
        r = TriElement(3, {m: 1 for m in row})
        sy = rng.randint(0, 2)
        n = sy + 1
        y = random_tri_element(rng, sy, d=2)
        if y.is_zero():
            continue
        grid = random_rect_element(rng, 3, n - 1, d=2)
        i = rng.randint(1, 4)
        out = diamond(r, i, y, grid)
        assert quotient_reduce(out, 2, Q, config=cfg).is_zero
        grid2 = random_rect_element(rng, n - 1, 3, d=2)
        j = rng.randint(1, n)
        out2 = diamond(y, j, r, grid2)
        assert quotient_reduce(out2, 2, Q, config=cfg).is_zero


def test_vanishing_check_all_cases(cfg):
    for n, d in ((4, 2), (5, 2)):
        rep = repeated_letter_vanishing_check(n, d, 30, 99, config=cfg)
        assert rep.passed
    rep = repeated_letter_vanishing_check(
        5, 3, 10, 99, field=FieldSpec.prime(1_000_003), config=cfg
    )
    assert rep.passed


def test_lift_rejects_non_alternating_functional(cfg):
    with pytest.raises(NotTwoAlternating) as err:
        lift_two_alternating(lambda m: 1, 3, 1, Q)
    assert err.value.row is not None


def test_lift_zero_functional(cfg):
    f = lift_two_alternating(lambda m: 0, 3, 2, Q)
    x = TriElement.monomial(TriMonomial(3, (1, 2, 1)))
    assert f.evaluate(x) == 0


def test_lift_agrees_with_projection(cfg):
    """f(reduce(m)) == phi(m) for every monomial: the lift factors."""
    from gsc.dets2 import monomial_functional

    f = lift_two_alternating(monomial_functional, 4, 2, Q)
    from gsc.tensor import enumerate_block_monomials, multidegrees

    for k in multidegrees(6, 2):
        ech_basis = {m: f.value_on_monomial(m) for m in quotient_basis(4, k, 2, Q, config=cfg)}
        for m in enumerate_block_monomials(4, k):
            res = quotient_reduce(TriElement.monomial(m), 2, Q, config=cfg)
            via_reduce = sum(
                (c * ech_basis[b] for blk in res.blocks for b, c in blk.coordinates),
                Fraction(0),
            )
            assert via_reduce == f.value_on_monomial(m)


def test_rational_wide_block_is_exact(tmp_path):
    """The widest published d=3 block is eliminated over Q itself."""
    clear_memory_cache()
    rep = block_dimension(5, (4, 3, 3), 3, Q, config=QuotientConfig(cache_dir=tmp_path))
    assert rep.certified == "exact"
    assert rep.field.is_rational
    assert rep.dimension == 16
    assert rep.rank == rep.n_monomials - 16


def test_d4_arity6_block_is_exact_over_q(cfg):
    """A d=4 arity-6 block of 12,600 columns is eliminated over Q itself."""
    rep = block_dimension(5, (4, 3, 2, 1), 4, Q, config=cfg)
    assert rep.n_monomials == 12_600
    assert rep.dimension == 96


def test_published_blocks_agree_across_fields(cfg):
    """Rational and three-prime dimensions coincide on every table block,
    the widest n=5 ones included; in general the prime dimension can
    only grow."""
    from gsc.fields import MULTI_PRIME_SET

    table = [
        (2, (1, 0, 0), 3, 1),
        (3, (2, 1, 0), 3, 2),
        (3, (1, 1, 1), 3, 5),
        (4, (3, 3, 0), 3, 1),
        (4, (3, 2, 1), 3, 9),
        (4, (2, 2, 2), 3, 22),
        (4, (3, 3), 2, 1),
        (3, (2, 1), 2, 2),
        (5, (4, 4, 2), 3, 6),
        (5, (4, 3, 3), 3, 16),
    ]
    for n, k, d, expected in table:
        dim_q = block_dimension(n, k, d, Q, config=cfg).dimension
        assert dim_q == expected
        for f in map(FieldSpec.prime, MULTI_PRIME_SET):
            dim_p = block_dimension(n, k, d, f, config=cfg).dimension
            assert dim_p == dim_q
            assert dim_p >= dim_q  # the rank inequality, degenerate here


def test_rref_of_pair_block_is_all_ones_row(cfg):
    ech = block_echelon(3, (2, 1), 2, Q, config=cfg)
    assert ech.rank == 1
    assert ech.pivot_cols == (0,)
    assert ech.rows == (((0, 1), (1, 1), (2, 1)),)


def test_reduce_refuses_wide_block_before_assembly(cfg, monkeypatch):
    # a normal form needs the block's echelon form; a block too wide to
    # eliminate is refused from its column count, naming the block, before
    # any of its rows are built
    import gsc.echelon as echelon
    from gsc.errors import ResourceLimit

    assembled = []
    real_assemble = echelon.assemble_relation_block

    def recording_assemble(n, k, *args, **kwargs):
        assembled.append((n, tuple(k)))
        return real_assemble(n, k, *args, **kwargs)

    monkeypatch.setattr("gsc.sparse.MAX_COLUMNS", 50)
    monkeypatch.setattr(echelon, "assemble_relation_block", recording_assemble)
    x = TriElement.monomial(TriMonomial(4, (1, 1, 2, 2, 3, 3)))  # 90 columns
    with pytest.raises(ResourceLimit, match=r"block n=4 k=\(2, 2, 2\) over Q"):
        quotient_reduce(x, 3, Q, cfg)
    assert assembled == []


def test_echelon_cache_disk_round_trip(tmp_path):
    clear_memory_cache()
    cfg1 = QuotientConfig(cache_dir=tmp_path / "e")
    e1 = block_echelon(3, (2, 1), 2, Q, config=cfg1)
    clear_memory_cache()
    e2 = block_echelon(3, (2, 1), 2, Q, config=cfg1)
    assert e1.pivot_cols == e2.pivot_cols
    assert e1.rows == e2.rows
