"""Long-running rank computation for the conjecture block.

The open case is the 15-entry block with five of each letter over a
3-dimensional space: 756,756 monomial columns and about five million
relation rows of at most six unit entries.  Everything here streams;
nothing materializes the full matrix.

The run moves through the phases stream -> peel -> done, all exact
over GF(p) or Q:

  stream - every relation row is read once, shortest first (the rows
           of the occupant multisets with 1, then 2, then 3 distinct
           letters: 1, 3 and 6 columns), and mapped through the column
           classes of a signed union-find: a row with one surviving
           term kills its class, a row with two identifies two classes
           up to a unit, and longer rows are stashed.  A row whose
           columns are all dead roots is dropped in numpy before it
           reaches Python; it would reduce to nothing.
  peel   - the stash is re-peeled in memory to a fixed point.  Stream
           and peel are Gaussian elimination restricted to unit and
           binomial pivots, so they cause no fill-in at all.
  core   - the surviving rows, over the live class roots, form an
           ordinary sparse system; its rank comes from the Markowitz
           engine in one call, and the phase becomes done.
  total  - rank = merges + class deaths + core rank.

The union-find, the peel loop and the core step are those of
:func:`gsc.sparse.rank_sparse`, which ranks every table block the same
way; only the stream and the checkpoints are this module's own.

The stream is one uninterrupted pass, since a rerun could not resume
inside it without streaming every row again.  Checkpoints (pickle under
the cache directory, followed by a line holding the pickle's SHA-256)
land after the stream, after the peel and when the run is done, so a
run stopped from outside (an interrupt, a memory error) resumes in phase
peel or done.  A checkpoint whose digest does not match, that does not
unpickle, or that was saved under another checkpoint schema or for
another block or field, is ignored.
A run over GF(p) reports a dimension that upper-bounds the rational
one; a run with ``p = None`` is exact over Q.  The block is
parameterizable so the identical pipeline is exercised on small blocks
by the tests; the defaults are the open case.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

try:  # CPython's own SHA-256: importing hashlib maps OpenSSL, about 4 MB of RSS
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .cache import resolve_cache_dir
from .fields import FieldSpec
from .relations import _occupant_multisets, iter_block_relations
from .sparse import _core_rank, _peel, _SignedUnionFind
from .tensor import count_block_monomials
from .tensor import rank_in_block  # noqa: F401  unused here; perfbench/spans.py wraps this name

STRETCH_N = 6
STRETCH_K = (5, 5, 5)
STRETCH_D = 3


@dataclass(frozen=True)
class StretchBlock:
    """One multidegree block: triangle size n, letter counts k, dim V = d."""

    n: int = STRETCH_N
    k: tuple[int, ...] = STRETCH_K
    d: int = STRETCH_D

    def columns(self) -> int:
        return count_block_monomials(self.n, self.k)

    def tag(self) -> str:
        return f"n{self.n}-k{'-'.join(map(str, self.k))}-d{self.d}"


CONJECTURE_BLOCK = StretchBlock()
# The schema is in the file name, so a file of another schema is never
# resumed.  Bump it whenever a resumed run could differ from a fresh one:
# when the fields of the saved state, the file's layout, the row order
# or the rows themselves change, so that the classes or the stash would.
CHECKPOINT_SCHEMA = 7
# A checkpoint is its pickle followed by this trailer line; pickle stops
# at its STOP opcode, so a plain ``pickle.load`` still reads the state.
_TRAILER_LEN = 65  # hex SHA-256 and a newline


def _trailer(payload) -> bytes:
    return sha256(payload).hexdigest().encode() + b"\n"


def stretch_column_count() -> int:
    return CONJECTURE_BLOCK.columns()


@dataclass
class StretchState:
    """What a checkpoint holds: the union-find and the stash of a run."""

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
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.write(_trailer(payload))
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

    A file whose trailer does not hold the SHA-256 of its pickle (a
    truncated or corrupt file), one that does not unpickle, or one saved
    under another checkpoint schema or for another block or field, is
    ignored, with a message through ``progress``.  So is a state whose union-find does not span
    the block's columns or whose phase is not one a run saves.
    """
    path = _checkpoint_path(cache_dir, block, p)
    if not path.exists():
        return None
    try:
        data = path.read_bytes()
        payload = memoryview(data)[:-_TRAILER_LEN]
        if data[-_TRAILER_LEN:] != _trailer(payload):
            problem = "unreadable (digest mismatch)"
        else:
            state = pickle.loads(payload)
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
    """The rank of a finished run, split into its peel and core parts."""

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
    there.  A core of more than ``gsc.sparse.MAX_ENTRIES`` entries raises
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
        # One pass over every relation row, shortest first; short rows
        # peel immediately, and a row whose columns are all dead roots,
        # which would reduce to nothing, never leaves numpy.
        uf = _SignedUnionFind(p, block.columns())
        dead = np.frombuffer(uf.dead, np.uint8)  # a live view: sees every kill
        multisets = _occupant_multisets(block.d)
        rows = chain.from_iterable(
            # the multisets of n distinct letters give the rows of 1, 3, 6 columns
            iter_block_relations(
                block.n, block.k, block.d, [o for o in multisets if len(set(o)) == n], dead
            )
            for n in (1, 2, 3)
        )
        stash_set, count = uf.sweep(rows, uf.reduce_row, progress)
        state = StretchState(CHECKPOINT_SCHEMA, p, block, "peel", uf, sorted(stash_set))
        del stash_set  # so the peel can free the stream's rows as it replaces them
        _save(state, cache_dir)
        if progress:
            progress(
                f"stream done: {count} rows, merges {uf.merges}, "
                f"deaths {uf.deaths}, stash {len(state.stash)}"
            )
    uf = state.uf

    if state.phase == "peel":
        # re-peel the stash to a fixed point entirely in memory, save,
        # then rank the core with the table engine's core step
        _peel(uf, state.stash, progress)
        _save(state, cache_dir)
        state.core_rank = _core_rank(state.stash, field, progress)
        state.phase = "done"
        _save(state, cache_dir)

    return _report(state, t0)
