"""Long-running rank computation for the conjecture block.

The open case is the 15-entry block with five of each letter over a
3-dimensional space: 756,756 monomial columns and about five million
relation rows of at most six unit entries.  Everything here streams;
nothing materializes the full matrix.

The run moves through the phases stream -> peel -> done, all exact
over GF(p) or Q:

  stream - every relation row is read once and mapped through the
           column classes of a signed union-find: a row with one
           surviving term kills its class, a row with two identifies
           two classes up to a unit, and longer rows are stashed.
  peel   - the stash is re-peeled in memory to a fixed point.  Stream
           and peel are Gaussian elimination restricted to unit and
           binomial pivots, so they cause no fill-in at all.
  core   - the surviving rows, over the live class roots, form an
           ordinary sparse system; its rank comes from the Markowitz
           engine of :mod:`gsc.sparse` in one call, and the phase
           becomes done.
  total  - rank = merges + class deaths + core rank.

The stream is one uninterrupted pass, since a rerun could not resume
inside it without streaming every row again.  Checkpoints (pickle under
the cache directory) land after the stream, after the peel and when the
run is done, so a run stopped from outside (an interrupt, a memory
error) resumes in phase peel or done.  An unreadable or mismatched
checkpoint, or one saved under another checkpoint schema, is ignored.
A run over GF(p) reports a dimension that upper-bounds the rational
one; a run with ``p = None`` is exact over Q.  The block is
parameterizable so the identical pipeline is exercised on small blocks
by the tests; the defaults are the open case.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from fractions import Fraction

from . import sparse
from .cache import resolve_cache_dir
from .errors import ResourceLimit
from .fields import FieldSpec
from .relations import iter_block_relations
from .tensor import count_block_monomials
from .tensor import rank_in_block  # noqa: F401  unused here; perfbench/spans.py wraps this name

STRETCH_N = 6
STRETCH_K = (5, 5, 5)
STRETCH_D = 3


@dataclass(frozen=True)
class StretchBlock:
    n: int = STRETCH_N
    k: tuple[int, ...] = STRETCH_K
    d: int = STRETCH_D

    def columns(self) -> int:
        return count_block_monomials(self.n, self.k)

    def tag(self) -> str:
        return f"n{self.n}-k{'-'.join(map(str, self.k))}-d{self.d}"


CONJECTURE_BLOCK = StretchBlock()
# Bumped whenever the saved state or the rows it is built from change.
# Schema 1 files (no version, a generating-set number in the name) are
# never resumed; schema 2 files copy the union-find's fields and hold a
# core basis of their own; schema 3 files may be saved inside the stream;
# schema 4 files hold Fraction scales and stash entries over Q, where
# schema 5 files hold ints wherever the value is an integer.
CHECKPOINT_SCHEMA = 5


def stretch_column_count() -> int:
    return CONJECTURE_BLOCK.columns()


class _SignedUnionFind:
    """Column classes with unit multipliers: value(c) = scale(c) * value(root).

    ``scale[c]`` is relative to ``parent[c]``; path compression rewrites
    it to be relative to the root.  ``p`` of None runs the same structure
    over the rationals, exactly: a scale is an int when the division that
    makes it is exact and a ``Fraction`` only when it is not.  On every
    block the tests run all scales are +-1, so the stash and the core
    hold ints and the core goes straight into the integer engine.
    """

    __slots__ = ("p", "parent", "scale", "dead", "merges", "deaths")

    def __init__(self, p: int | None, n: int):
        self.p = p
        self.parent = list(range(n))
        self.scale = [1] * n
        self.dead = bytearray(n)
        self.merges = 0
        self.deaths = 0

    def find(self, c: int) -> tuple[int, object]:
        parent = self.parent
        scale = self.scale
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        root = c
        # compress from the shallow end: after the loop every path node
        # points at the root with its cumulative multiplier
        p_mod = self.p
        cum = 1
        for node in reversed(path):
            cum = scale[node] * cum if p_mod is None else scale[node] * cum % p_mod
            parent[node] = root
            scale[node] = cum
        return root, cum

    def kill(self, root: int) -> None:
        if not self.dead[root]:
            self.dead[root] = 1
            self.deaths += 1

    def merge(self, r1: int, v1, r2: int, v2) -> None:
        """Impose v1*x1 + v2*x2 = 0 on live roots r1 != r2."""
        p = self.p
        # attach r1 under r2: x1 = (-v2/v1) x2
        self.parent[r1] = r2
        if p is None:
            q, r = divmod(-v2, v1)
            self.scale[r1] = Fraction(-v2, v1) if r else q
        else:
            self.scale[r1] = -v2 * pow(v1, p - 2, p) % p
        self.merges += 1

    # The two reducers read a column's class in at most two list reads: a
    # root is its own class with scale 1 (a root's scale is never
    # rewritten), and a column whose parent is a root already holds its
    # scale relative to that root, exactly what find would write back.
    # Only a deeper chain pays for find and its compression.

    def reduce_row_items(self, items) -> list[tuple[int, object]]:
        """Map (column, coeff) pairs through classes; drop dead, combine."""
        p, parent, scale, dead, find = self.p, self.parent, self.scale, self.dead, self.find
        acc: dict[int, object] = {}
        for c, coeff in items:
            root = parent[c]
            if root == c:
                s = 1
            elif parent[root] == root:
                s = scale[c]
            else:
                root, s = find(c)
            if dead[root]:
                continue
            v = acc.get(root, 0) + coeff * s
            acc[root] = v if p is None else v % p
        return [t for t in sorted(acc.items()) if t[1]]

    def reduce_row(self, cols) -> list[tuple[int, object]]:
        """Unit-coefficient column tuple, mapped through the classes."""
        p, parent, scale, dead, find = self.p, self.parent, self.scale, self.dead, self.find
        acc: dict[int, object] = {}
        for c in cols:
            root = parent[c]
            if root == c:
                s = 1
            elif parent[root] == root:
                s = scale[c]
            else:
                root, s = find(c)
            if dead[root]:
                continue
            v = acc.get(root, 0) + s
            acc[root] = v if p is None else v % p
        return [t for t in sorted(acc.items()) if t[1]]

    def absorb(self, items) -> bool:
        """Use a reduced row as a unit/binomial pivot if short enough.

        Returns True if consumed (length 0, 1 or 2), False if it belongs
        in the core.
        """
        n = len(items)
        if n == 2:
            (r1, v1), (r2, v2) = items
            self.merge(r1, v1, r2, v2)
        elif n == 1:
            self.kill(items[0][0])
        return n <= 2

    def sweep(self, rows, reduce, progress=None) -> tuple[set, int]:
        """Reduce each row with ``reduce`` and absorb it, or stash it.

        Returns the stashed rows and the number of rows read; with
        ``progress`` a line is reported every million rows.
        """
        stash: set = set()
        absorb, stash_add = self.absorb, stash.add
        count = 0
        for count, row in enumerate(rows, 1):
            items = reduce(row)
            if not absorb(items):
                stash_add(tuple(items))
            if progress and not count % 1_000_000:
                progress(
                    f"stream: {count} rows, merges {self.merges}, "
                    f"deaths {self.deaths}, stash {len(stash)}"
                )
        return stash, count


@dataclass
class StretchState:
    schema: int
    p: int | None
    block: StretchBlock
    phase: str  # "peel" -> "done"; nothing is saved inside the stream
    uf: _SignedUnionFind
    stash: list
    core_rank: int = 0

    @property
    def merges(self) -> int:
        return self.uf.merges

    @property
    def deaths(self) -> int:
        return self.uf.deaths


def _checkpoint_path(cache_dir, block: StretchBlock, p):
    root = resolve_cache_dir(cache_dir)
    ftag = "q" if p is None else f"p{p}"
    return root / "stretch" / f"{block.tag()}-{ftag}-s{CHECKPOINT_SCHEMA}.pickle"


def _save(state: StretchState, cache_dir) -> None:
    path = _checkpoint_path(cache_dir, state.block, state.p)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)


def _state_problem(state, block: StretchBlock, p: int | None) -> str | None:
    """Why a loaded state cannot be resumed for this run, or None."""
    schema = getattr(state, "schema", None)
    if not isinstance(state, StretchState) or schema != CHECKPOINT_SCHEMA:
        return f"saved under checkpoint schema {schema}, not {CHECKPOINT_SCHEMA}"
    if (state.block, state.p) != (block, p):
        return "saved for another block or field"
    uf = state.uf
    if not len(uf.parent) == len(uf.scale) == len(uf.dead) == block.columns():
        return "union-find does not span the block's columns"
    if state.phase not in ("peel", "done"):
        return f"unknown phase {state.phase!r}"
    if not isinstance(state.stash, list):
        return "stash is not a list"
    return None


def _load(cache_dir, block: StretchBlock, p: int | None, progress=None) -> StretchState | None:
    """The saved state for this run, or None to start fresh.

    A truncated or corrupt file, or one saved under another checkpoint
    schema or for another block or field, is ignored, with a message
    through ``progress``.  So is a state whose union-find does not span
    the block's columns or whose phase is not one a run saves.
    """
    path = _checkpoint_path(cache_dir, block, p)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as fh:
            state = pickle.load(fh)
        problem = _state_problem(state, block, p)
    except Exception as exc:  # a corrupt pickle can raise almost anything
        problem = f"unreadable ({type(exc).__name__}: {exc})"
    if problem is None:
        return state
    if progress:
        progress(f"ignoring checkpoint {path.name}: {problem}; starting fresh")
    return None


@dataclass(frozen=True)
class StretchReport:
    p: int | None  # None: the run was exact over the rationals
    n_columns: int
    peel_rank: int
    core_rows: int
    core_rank: int
    rank: int
    dimension: int
    seconds: float
    finished: bool  # always true: a report is made only when the run is done


def _report(state: StretchState, t0: float) -> StretchReport:
    n_cols = state.block.columns()
    peel_rank = state.merges + state.deaths
    rank = peel_rank + state.core_rank
    return StretchReport(
        p=state.p,
        n_columns=n_cols,
        peel_rank=peel_rank,
        core_rows=len(state.stash),
        core_rank=state.core_rank,
        rank=rank,
        dimension=n_cols - rank,
        seconds=time.monotonic() - t0,
        finished=state.phase == "done",
    )


def stretch_rank(
    field: FieldSpec,
    cache_dir=None,
    progress=None,
    block: StretchBlock = CONJECTURE_BLOCK,
) -> StretchReport:
    """Rank of the block over ``field``; checkpoints and resumes.

    The run loads its checkpoint, or streams every row and saves (phase
    peel); peels the stash to its fixed point and saves; eliminates the
    core and saves (phase done).  A run stopped after a save resumes
    there.  A core of more than ``sparse.MAX_ENTRIES`` entries raises
    :class:`ResourceLimit` after the peel has been checkpointed.

    Rational runs are exact: the peel phase uses only unit and binomial
    pivots, so coefficients stay small and there is no fill-in; only a
    nonempty core can grow, and the memory budget guards it.
    """
    p = field.p
    t0 = time.monotonic()
    state = _load(cache_dir, block, p, progress)
    if state is not None:
        if progress:
            progress(f"resumed in phase {state.phase}")
    else:
        # One pass over every relation row; short rows peel immediately.
        uf = _SignedUnionFind(p, block.columns())
        rows = iter_block_relations(block.n, block.k, block.d)
        stash_set, count = uf.sweep(rows, uf.reduce_row, progress)
        state = StretchState(CHECKPOINT_SCHEMA, p, block, "peel", uf, sorted(stash_set))
        _save(state, cache_dir)
        if progress:
            progress(
                f"stream done: {count} rows, merges {uf.merges}, "
                f"deaths {uf.deaths}, stash {len(state.stash)}"
            )
    uf = state.uf

    if state.phase == "peel":
        # re-peel the stash to a fixed point entirely in memory
        sweep = 0
        while True:
            sweep += 1
            before = uf.merges + uf.deaths
            stash_set, _ = uf.sweep(state.stash, uf.reduce_row_items)
            state.stash = sorted(stash_set)
            changed = uf.merges + uf.deaths - before
            if progress:
                progress(
                    f"peel sweep {sweep}: +{changed} pivots, stash {len(state.stash)}"
                )
            if not changed:
                break
        _save(state, cache_dir)

        # the core: what the peel left, over the live class roots,
        # eliminated in one call to the table engine
        rows = [r for r in map(uf.reduce_row_items, state.stash) if r]
        if sum(map(len, rows)) > sparse.MAX_ENTRIES:
            raise ResourceLimit("core exceeds the memory budget; peel checkpointed")
        roots = {r: i for i, r in enumerate(sorted({c for row in rows for c, _ in row}))}
        core = sparse.SparseMatrix(
            len(rows), len(roots), field,
            tuple(tuple((roots[c], v) for c, v in row) for row in rows),
        )
        pivot_cols, _ = sparse._sparse_eliminate(core)
        state.core_rank = len(pivot_cols)
        state.phase = "done"
        _save(state, cache_dir)
        if progress:
            progress(f"core: {core.n_rows} rows on {core.n_cols} classes, rank {state.core_rank}")

    return _report(state, t0)
