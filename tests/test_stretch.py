import hashlib
import itertools
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest
from test_relations import TABLE_BLOCKS

import gsc.sparse
import gsc.stretch
from gsc.errors import ResourceLimit
from gsc.fields import FieldSpec
from gsc.stretch import (
    CHECKPOINT_SCHEMA,
    CONJECTURE_BLOCK,
    StretchBlock,
    _SignedUnionFind,
    _checkpoint_path,
    stretch_column_count,
    stretch_rank,
)

GFP = FieldSpec.prime(1_000_003)


def test_conjecture_block_column_count():
    assert stretch_column_count() == 756756
    assert CONJECTURE_BLOCK.columns() == 756756


def test_pipeline_reproduces_small_block_rank(tmp_path):
    block = StretchBlock(n=4, k=(3, 3), d=2)
    rep = stretch_rank(GFP, cache_dir=tmp_path, block=block)
    assert rep.finished
    assert (rep.n_columns, rep.rank, rep.dimension) == (20, 19, 1)
    assert rep.peel_rank + rep.core_rank == 19


def test_pipeline_on_pruned_block(tmp_path):
    # every column dies when a letter count reaches the size
    block = StretchBlock(n=4, k=(6, 0), d=2)
    rep = stretch_rank(GFP, cache_dir=tmp_path, block=block)
    assert rep.dimension == 0 and rep.n_columns == 1


def test_pipeline_matches_block_dimension_table(tmp_path):
    from gsc.echelon import echelon_sparse
    from gsc.quotient import QuotientConfig, block_dimension, clear_memory_cache
    from gsc.relations import assemble_relation_block

    clear_memory_cache()
    cfg = QuotientConfig(cache_dir=tmp_path / "q")
    blocks = list(TABLE_BLOCKS)
    assert len(blocks) == 15
    # the stretch workload's arity-7 block: its one-letter rows kill every column
    blocks.append((6, (10, 4, 1), 3))
    for field in (FieldSpec.rational(), GFP):
        for n, k, d in blocks:
            block = StretchBlock(n, k, d)
            rep = stretch_rank(field, cache_dir=tmp_path / "s", block=block)
            table = block_dimension(n, k, d, field, config=cfg)
            assert rep.rank == table.rank, (n, k, field)
            assert rep.dimension == table.dimension
            # both share the peel; the echelon form is whole-matrix
            # Markowitz elimination, a route that shares none of it
            ech = echelon_sparse(assemble_relation_block(n, k, d, field).matrix)
            assert len(ech.pivot_cols) == rep.rank, (n, k, field)
            # the stream skips rows of dead columns: that is exact only
            # because a dead column stays a root
            uf = pickle.loads(_checkpoint_path(tmp_path / "s", block, field.p).read_bytes()).uf
            assert all(uf.parent[c] == c for c, dead in enumerate(uf.dead) if dead), (n, k, field)
            if k == (4, 3, 3):
                # 2,060 rows survive the peel: the core engine does real work
                assert rep.core_rows == 2060 and rep.core_rank > 0


class Stopped(Exception):
    """Stands for whatever ends a run from outside: an interrupt, a kill."""


def test_checkpoint_and_resume(tmp_path, monkeypatch):
    block = StretchBlock(n=5, k=(4, 3, 3), d=3)  # a 2,060-row stash and a core
    want = stretch_rank(GFP, cache_dir=tmp_path / "fresh", block=block)
    assert want.core_rows == 2060 and want.core_rank > 0

    reduce_items = _SignedUnionFind.reduce_row_items
    reduced = itertools.count()

    def stop_in_first_sweep(uf, items):
        # only the peel reduces stashed items; stop a few rows in
        if next(reduced) == 5:
            raise Stopped
        return reduce_items(uf, items)

    def stop(*args, **kwargs):
        raise Stopped

    stops = {
        "peel": (_SignedUnionFind, "reduce_row_items", stop_in_first_sweep),
        "core": (gsc.sparse, "_sparse_eliminate", stop),
    }
    for where, (owner, name, fn) in stops.items():
        with monkeypatch.context() as m:
            m.setattr(owner, name, fn)
            with pytest.raises(Stopped):
                stretch_rank(GFP, cache_dir=tmp_path / where, block=block)
        messages = []
        rep = stretch_rank(GFP, cache_dir=tmp_path / where, block=block, progress=messages.append)
        assert messages[0] == "resumed in phase peel", where
        assert replace(rep, seconds=0.0) == replace(want, seconds=0.0), where

    # a further call resumes a finished run without streaming and reports
    # what was saved, the core rank included
    full_rank = StretchBlock(n=5, k=(5, 5), d=2)
    done = {block: want, full_rank: stretch_rank(GFP, cache_dir=tmp_path / "core", block=full_rank)}
    assert (done[full_rank].dimension, done[full_rank].n_columns) == (0, 252)

    def no_rows(*args, **kwargs):
        raise AssertionError("a finished run streamed rows")

    monkeypatch.setattr(gsc.stretch, "iter_block_relations", no_rows)
    for b, rep in done.items():
        messages = []
        again = stretch_rank(GFP, cache_dir=tmp_path / "core", block=b, progress=messages.append)
        assert messages == ["resumed in phase done"]
        assert replace(again, seconds=0.0) == replace(rep, seconds=0.0)


def test_oversized_core_is_refused_after_the_peel_is_saved(tmp_path, monkeypatch):
    block = StretchBlock(n=4, k=(2, 2, 2), d=3)  # nothing peels: a 96-row core
    monkeypatch.setattr(gsc.sparse, "MAX_ENTRIES", 10)
    with pytest.raises(ResourceLimit, match="core exceeds the memory budget"):
        stretch_rank(GFP, cache_dir=tmp_path, block=block)
    monkeypatch.undo()
    messages = []
    rep = stretch_rank(GFP, cache_dir=tmp_path, block=block, progress=messages.append)
    assert messages[0] == "resumed in phase peel"
    assert rep.finished and (rep.core_rows, rep.rank, rep.dimension) == (96, 68, 22)


def test_union_find_scales():
    uf = _SignedUnionFind(97, 5)
    # x0 = 2 x1, x1 = 3 x2  =>  x0 = 6 x2
    uf.merge(0, 1, 1, -2 % 97)
    uf.merge(1, 1, 2, -3 % 97)
    root, s = uf.find(0)
    assert root == 2 and s == 6
    # a row 1*x0 + 1*x2 reduces to 7 x2
    assert uf.reduce_row((0, 2)) == [(2, 7)]
    uf.kill(2)
    assert uf.reduce_row((0, 1, 2)) == []


def chained_union_find(p):
    """Uncompressed chains 0 -> 1 -> 2 -> 3 and 4 -> 5, and a dead class 6.

    Column 2 is one step from its root, 1 two steps and 0 three; over Q
    the scale of 0 is the Fraction -3/2.
    """
    uf = _SignedUnionFind(p, 7)
    unit = (lambda v: v) if p is None else (lambda v: v % p)
    uf.merge(0, 2, 1, 3)  # x0 = -3/2 x1
    uf.merge(1, 1, 2, unit(-3))  # x1 = 3 x2
    uf.merge(2, 1, 3, unit(-5))  # x2 = 5 x3
    uf.merge(4, 1, 5, 7)  # x4 = -7 x5
    uf.kill(6)
    return uf


def reduce_by_find(uf, items):
    """The reducers' reference: a full find for every column."""
    acc = {}
    for c, coeff in items:
        root, s = uf.find(c)
        if not uf.dead[root]:
            v = acc.get(root, 0) + coeff * s
            acc[root] = v if uf.p is None else v % uf.p
    return sorted((r, v) for r, v in acc.items() if v)


@pytest.mark.parametrize("p", [97, None])
def test_class_lookup_matches_find_on_chains(p):
    if p is None:
        assert type(chained_union_find(p).scale[0]) is Fraction
    # depth-1 columns first, then rows that compress the deeper chains
    # and meet the compressed columns again
    rows = [(2,), (2, 3), (4,), (4, 5, 6), (1, 3), (0,), (0, 1, 2, 3), (0, 4, 6), (1, 5), (0, 2)]
    coeffs = (3, 1, 2, 1, 4, 1)
    for reducer in ("reduce_row", "reduce_row_items"):
        got, want = chained_union_find(p), chained_union_find(p)
        for row in rows:
            if reducer == "reduce_row":
                items = [(c, 1) for c in row]
                out = got.reduce_row(row)
            else:
                items = list(zip(row, coeffs))
                out = got.reduce_row_items(items)
            assert out == reduce_by_find(want, items), (reducer, row)
            assert (got.parent, got.scale) == (want.parent, want.scale), (reducer, row)
    # the chains really were deep: the last find compressed them
    assert got.parent[:3] == [3, 3, 3]


def test_rational_union_find_keeps_int_scales_unless_division_is_inexact(tmp_path):
    uf = _SignedUnionFind(None, 3)
    # 2 x0 + 3 x1 = 0  =>  x0 = -3/2 x1, the one scale that is not an int
    uf.merge(0, 2, 1, 3)
    assert uf.scale[0] == Fraction(-3, 2) and type(uf.scale[0]) is Fraction
    # x1 - 5 x2 = 0  =>  x1 = 5 x2, a unit merge
    uf.merge(1, 1, 2, -5)
    assert uf.scale[1] == 5 and type(uf.scale[1]) is int
    assert uf.find(0) == (2, Fraction(-15, 2))
    assert uf.scale[0] == Fraction(-15, 2)
    assert uf.reduce_row((0, 1, 2)) == [(2, Fraction(-3, 2))]

    # on a published block every division is exact: every saved scale and
    # stash entry must be an int, so the core runs on ints
    block = StretchBlock(n=5, k=(4, 3, 3), d=3)
    rep = stretch_rank(FieldSpec.rational(), cache_dir=tmp_path, block=block)
    assert rep.finished and rep.core_rows == 2060
    state = pickle.loads(_checkpoint_path(tmp_path, block, None).read_bytes())
    assert state.uf.merges > 0 and state.stash
    assert all(type(x) is int for x in state.uf.scale)
    assert all(type(v) is int for row in state.stash for _, v in row)


def test_rational_run_is_exact_and_matches(tmp_path):
    block = StretchBlock(n=4, k=(3, 3), d=2)
    rep = stretch_rank(FieldSpec.rational(), cache_dir=tmp_path, block=block)
    assert rep.p is None
    assert rep.finished
    assert (rep.n_columns, rep.rank, rep.dimension) == (20, 19, 1)


def test_rational_and_prime_pipelines_agree(tmp_path):
    for n, k, d in ((4, (3, 2, 1), 3), (5, (4, 3, 3), 3)):
        block = StretchBlock(n, k, d)
        rq = stretch_rank(FieldSpec.rational(), cache_dir=tmp_path / "q", block=block)
        rp = stretch_rank(GFP, cache_dir=tmp_path / "p", block=block)
        assert rq.rank == rp.rank and rq.dimension == rp.dimension


def seal(payload: bytes) -> bytes:
    """A checkpoint file: the pickle, then a line with its SHA-256."""
    return payload + hashlib.sha256(payload).hexdigest().encode() + b"\n"


def test_truncated_or_mismatched_checkpoint_starts_fresh(tmp_path):
    block = StretchBlock(n=4, k=(3, 3), d=2)
    want = stretch_rank(GFP, cache_dir=tmp_path, block=block)
    path = _checkpoint_path(tmp_path, block, GFP.p)
    other = StretchBlock(n=4, k=(2, 2, 2), d=3)
    stretch_rank(GFP, cache_dir=tmp_path / "other", block=other)
    foreign = _checkpoint_path(tmp_path / "other", other, GFP.p).read_bytes()
    good = path.read_bytes()
    payload = good[:-65]
    assert seal(payload) == good

    def edited(edit):
        state = pickle.loads(good)  # pickle stops before the trailer
        edit(state)
        return seal(pickle.dumps(state))

    def ignored(bad, reason):
        path.write_bytes(bad)
        messages = []
        rep = stretch_rank(GFP, cache_dir=tmp_path, block=block, progress=messages.append)
        assert replace(rep, seconds=0.0) == replace(want, seconds=0.0)
        assert any("ignoring checkpoint" in m and reason in m for m in messages), messages
        assert not any(m.startswith("resumed") for m in messages)

    for bad, reason in (
        (good[:100], "unreadable (digest mismatch)"),
        (payload, "unreadable (digest mismatch)"),
        (seal(payload[:100]), "unreadable (UnpicklingError"),
        (foreign, "another block"),
        # a state saved by code with another schema, e.g. another row order
        (edited(lambda s: setattr(s, "schema", CHECKPOINT_SCHEMA - 1)), f"schema {CHECKPOINT_SCHEMA - 1}"),
        # corrupt bytes under a matching digest that pickle itself does
        # not report as such
        (seal(payload.replace(b"StretchState", b"StretchStatf")), "unreadable (AttributeError"),
        (seal(payload.replace(b"gsc.stretch", b"gsc.strftch")), "unreadable (ModuleNotFoundError"),
        (seal(b"\x80\x05X\x02\x00\x00\x00\xff\xfe."), "unreadable (UnicodeDecodeError"),
        # well-formed states that no run saves
        (edited(lambda s: s.uf.parent.pop()), "does not span"),
        (edited(lambda s: s.uf.dead.append(0)), "does not span"),
        (edited(lambda s: setattr(s, "phase", "stream")), "unknown phase 'stream'"),
        (edited(lambda s: delattr(s, "stash")), "no attribute 'stash'"),
    ):
        ignored(bad, reason)
    # one flipped bit anywhere, in the pickle or in its trailer, is caught
    # by the digest, even where the state would still unpickle
    for i in range(len(good)):
        bad = bytearray(good)
        bad[i] ^= 1
        ignored(bytes(bad), "unreadable (digest mismatch)")
    # without a progress callback the bad file is still ignored
    path.write_bytes(b"")
    assert stretch_rank(GFP, cache_dir=tmp_path, block=block).rank == want.rank


def state_digest(state) -> str:
    uf = state.uf
    return hashlib.sha256(repr((uf.parent, uf.scale, bytes(uf.dead), state.stash)).encode()).hexdigest()[:16]


# merges + deaths and the core are the block's own: they do not depend on
# the row order, and the one-pass stream in triple-major order gave them too
PEEL_INVARIANTS = {(4, 4, 2): (3125, (80, 19)), (4, 3, 3): (3955, (2060, 229))}


@pytest.mark.parametrize(
    "k, p, stream_end, sweeps, final, core, digest",
    [
        # k, p: (rows, merges, deaths, stash) at the end of the stream; the
        # stash after each peel sweep; final (merges, deaths); core (rows,
        # rank); a digest of the saved classes and stash
        ((4, 4, 2), GFP.p, (6930, 1115, 2010, 935), (80,), (1115, 2010), (80, 19), "a42ca0ebf4663a8f"),
        ((4, 4, 2), None, (6930, 1115, 2010, 935), (80,), (1115, 2010), (80, 19), "04bb5f7b33e2c8a3"),
        ((4, 3, 3), GFP.p, (10072, 1843, 2096, 3710), (2068, 2060), (1859, 2096), (2060, 229), "3120dde8cacdb49e"),
        ((4, 3, 3), None, (10072, 1843, 2096, 3710), (2070, 2060), (1859, 2096), (2060, 229), "0809d6d074cb28c6"),
    ],
)
def test_peel_counters_are_pinned(tmp_path, k, p, stream_end, sweeps, final, core, digest):
    # the row order, the dead-row skip, the stash order and the absorb rule
    # all show in these
    block = StretchBlock(5, k, 3)
    field = FieldSpec.rational() if p is None else FieldSpec.prime(p)
    messages = []
    rep = stretch_rank(field, cache_dir=tmp_path, block=block, progress=messages.append)
    rows, merges, deaths, stash = stream_end
    pivots = sum(final) - merges - deaths
    assert messages == [
        f"stream done: {rows} rows, merges {merges}, deaths {deaths}, stash {stash}",
        # every pivot the peel adds comes in its first sweep, and the last adds none
        *(f"peel sweep {i}: +{pivots if i == 1 else 0} pivots, stash {s}" for i, s in enumerate(sweeps, 1)),
        f"core: {core[0]} rows on {rep.n_columns - sum(final)} classes, rank {core[1]}",
    ]
    state = pickle.loads(_checkpoint_path(tmp_path, block, p).read_bytes())
    assert (state.merges, state.deaths) == final
    assert (rep.core_rows, rep.core_rank) == core
    assert rep.peel_rank == sum(final) and rep.rank == sum(final) + core[1]
    assert (sum(final), core) == PEEL_INVARIANTS[k]
    assert state_digest(state) == digest
